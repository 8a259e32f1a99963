(** A minimal fixed-size domain pool for embarrassingly parallel fan-out
    (OCaml 5 [Domain]s, no dependency on domainslib).

    Designed for the experiment harness: each work item is a self-contained
    closure (its own cluster, RNG streams, metrics), so workers share
    nothing and results are bit-identical to a sequential run.  Tasks are
    claimed from a single atomic counter — no work stealing, no channels —
    which is all a workload of a few dozen multi-second simulations needs. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1] (at least 1): leave one core's
    worth of headroom for the caller's process and the OS. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] applies [f] to every element of [xs], running up to
    [domains] applications concurrently (the calling domain participates),
    and returns the results {e in input order}.

    - [domains] defaults to {!recommended_jobs}; it is clamped to the list
      length, and [domains:1] (or a singleton/empty list) degrades to plain
      [List.map f xs] on the calling domain — no domain is ever spawned.
    - If any application raises, the remaining unstarted items are
      abandoned, every worker is joined, and the exception of the
      lowest-index failed item is re-raised (with its backtrace) in the
      calling domain.
    - [f] must not rely on shared mutable state: applications run
      concurrently on separate domains in an unspecified relative order.

    @raise Invalid_argument if [domains < 1]. *)

(** Persistent worker domains for repeated fork-join rounds.

    Where {!map} spawns domains per call, a gang parks its workers on a
    condition variable between jobs — the launch/join round trip is two
    lock acquisitions per worker, cheap enough to run once per
    synchronized window of the parallel discrete-event engine. *)
module Gang : sig
  type t

  val create : workers:int -> t
  (** Spawn [workers] parked domains.  @raise Invalid_argument if
      [workers < 1]. *)

  val launch : t -> (int -> unit) -> unit
  (** Start one job round: every worker [i] in [0, size) runs [f i]
      concurrently with the caller.  The caller may do its own share of
      the work before {!join}.  @raise Invalid_argument if the previous
      round was not joined or the gang is shut down. *)

  val join : t -> unit
  (** Block until every worker finished the current round (a
      synchronization point: workers' writes are visible after).  If any
      worker raised, the first exception recorded is re-raised here. *)

  val shutdown : t -> unit
  (** Stop and join all workers.  Idempotent. *)
end
