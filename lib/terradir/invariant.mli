(** Runtime invariant auditor for the soft-state replication protocol.

    Asserts, per server, the properties the paper's protocol maintains by
    construction — statically checkable nowhere, so they are audited
    against the live state at a configurable event cadence and at the end
    of every [Cluster.run_until]:

    - {b replica-bound} (§3.4): replicas hosted ≤ ⌊r_fact × nodes owned⌋;
    - {b map-bound} (§3.7): every node map — hosted, neighbor context, or
      cached — holds at most [r_map] entries;
    - {b self-missing}: an {e owned} node's map lists the owning server —
      the self entry carries the owner flag, which every merge and
      truncation pins.  A replica's non-owner self entry enjoys no such
      pinning (a full map keeps owners first, so small [r_map] can truncate
      it), and the converse — a neighbor/cached map for a non-hosted node
      listing this server — is tolerated stale state: bootstrap seeds
      contexts from ground-truth ownership and replica eviction leaves the
      holder's own stale entry behind; routing excludes self as a target
      and the entry decays through the stale-forward machinery;
    - {b stamp-future}: no map entry is stamped later than the current
      simulation time (causality of creation/refresh stamps);
    - {b cache-bound}: LRU occupancy within [cache_slots];
    - {b cache-empty-map}: no cache entry holds an empty map (routing's
      candidate scan reads cache keys only, relying on this);
    - {b hosted-index}: each dense key of the server's hosted table
      resolves, through the table's index, to the slot it sits in
      (routing sweeps the dense keys);
    - {b load-range}: measured busy fractions lie in [0, 1];
    - {b digest-stale} (§3.6): the local Bloom digest has no false
      negatives over the hosted set;
    - {b queue-bound} (§4.1): query queues within {!Server.queue_capacity};
    - {b count-mismatch} / {b context-missing} / {b context-refs}: cached
      counters and refcounted neighbor contexts tie exactly to the hosted
      table;
    - {b owner-missing} (cluster-wide): every node's ground-truth owner
      hosts it as owned;
    - {b clock-regression} / {b event-queue-order} (engine): simulation
      time is monotone and no pending event is in the past.

    Violations are {e collected}, not asserted: a mid-run audit pass never
    aborts the simulation.  At the end of a [Cluster.run_until] the
    collected findings are delivered — by default ({!set_mode} [`Raise])
    as an {!Audit_failure}, which is how the test suite runs under
    TERRADIR_AUDIT=1; the CLI's [--audit] switches to [`Collect], which
    accumulates printable reports instead ({!collected_reports}).

    Audit passes are observationally neutral: no RNG draws, no event
    scheduling.  (Reading a load meter rolls its windows to the audit
    time — the identical mutation the next protocol read would perform.) *)

open Types

type violation = {
  v_time : float;  (** simulation time of the audit pass that caught it *)
  v_server : server_id option;  (** [None] for cluster-wide properties *)
  v_rule : string;  (** rule id from the catalogue above *)
  v_detail : string;
}

type t
(** A violation collector: one per audited cluster. *)

exception Audit_failure of string
(** Raised by {!deliver} in [`Raise] mode; the payload is {!report}. *)

val create : unit -> t

val check_server : t -> now:float -> Server.t -> unit
(** One audit pass over a single server's state. *)

val check_cluster :
  t ->
  now:float ->
  next_event:float option ->
  servers:Server.t array ->
  owner_of:server_id array ->
  unit
(** One audit pass over the whole deployment: engine-time sanity, every
    server, and cross-server ownership placement.  [next_event] is
    [Engine.next_time] at the moment of the pass. *)

val violations : t -> violation list
(** Collected violations, oldest first (at most 200 are kept; the total
    keeps counting). *)

val total_violations : t -> int

val describe : violation -> string

val deliver : t -> label:string -> unit
(** End-of-run delivery: no-op if nothing was collected; otherwise raises
    {!Audit_failure} ([`Raise] mode) or stashes the report for
    {!collected_reports} ([`Collect] mode).  Either way the collector is
    reset, so consecutive run segments deliver only their own findings. *)

(** {2 Enabling} *)

val enabled : unit -> bool
(** True when {!force_enable} or the TERRADIR_AUDIT environment variable
    (any value but "" and "0") asks for auditing: protocol invariants are
    then checked every [Cluster.audit_every] engine events and at the end
    of every [Cluster.run_until], with violations collected into a
    report. *)

val force_enable : unit -> unit
(** Process-wide switch used by the CLI's [--audit]; call before creating
    clusters (and before any worker domain spawns). *)

val set_mode : [ `Raise | `Collect ] -> unit

val collected_reports : unit -> string list
(** Reports stashed by [`Collect]-mode delivery, in delivery order;
    thread-safe across worker domains. *)

val assert_server : Server.t -> now:float -> unit
(** Single-server audit that raises [Failure] on the first violation —
    the test-friendly replacement for the old [Server.check_invariants]. *)
