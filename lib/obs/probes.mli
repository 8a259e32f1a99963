(** Per-server time-series probes.

    One {!sample} per server per probe tick (the engine-observer cadence
    configured by [probe_every]): smoothed load, instantaneous queue
    depth, replica count, and cumulative cache hit rate.  The store grows
    to cover whatever server ids are probed; sampling itself reads
    simulation state but never mutates it. *)

type sample = {
  p_time : float;
  p_load : float;  (** smoothed load-meter reading *)
  p_queue : int;  (** request-queue depth at the tick *)
  p_replicas : int;  (** replicas hosted (excluding owned nodes) *)
  p_hit_rate : float;  (** cumulative replica-cache hit rate, 0 if unused *)
}

type t

val create : unit -> t

val add : t -> server:int -> sample -> unit
(** @raise Invalid_argument on a negative server id. *)

val samples : t -> int
(** Total samples across all servers. *)

val series : t -> int -> sample list
(** Chronological samples for one server; [] if never probed. *)

val iter : t -> (server:int -> sample -> unit) -> unit
(** All samples, grouped by server id ascending, chronological within. *)
