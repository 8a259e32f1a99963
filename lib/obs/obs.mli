(** The observability sink: level-gated flight recording plus probe
    storage, shared by every layer of one simulated cluster.

    {b Zero-cost-when-disabled contract.}  Call sites guard every emission
    on a precomputed boolean ({!counters_on} / {!spans_on} / {!full_on}),
    so with the shared {!null} sink a hook costs one load and one
    untaken branch — no event value is even allocated.  The bench suite
    pins this (< 2% on the routing micro-benches).

    {b Determinism contract.}  Recording reads the engine's stamp and
    writes sink-private arrays; it never draws randomness, schedules
    engine events, or mutates simulation state.  [test_obs] enforces this
    by byte-comparing fig3 CSVs between [Off] and [Full].

    Level ladder (each includes the previous):
    - [Off]: nothing recorded; {!record} is a no-op.
    - [Counters]: occupancy edges, replica churn, network faults, drops —
      the cheap aggregate set — plus periodic probes.
    - [Spans]: query lifecycle events (inject/queue/service/transit/
      resolve/retransmit) for per-query span reconstruction.
    - [Full]: everything, including per-lookup cache hit/miss and digest
      shortcut events. *)

type level = Off | Counters | Spans | Full

val level_to_string : level -> string

val level_of_string : string -> level option
(** Parses the CLI spelling ("off" | "counters" | "spans" | "full"). *)

type t

val null : t
(** The shared disabled sink — the default everywhere.  Immutable in
    practice, so it is safe to share across domains. *)

val create : ?capacity:int -> ?probe_every:int -> level:level -> unit -> t
(** Fresh sink.  [capacity] bounds the flight recorder ring (default
    2^18 entries); [probe_every] is the engine-observer cadence, in
    executed events, for time-series probes (default 2000).
    @raise Invalid_argument if [probe_every < 1]. *)

val level : t -> level

val counters_on : t -> bool
(** [level <> Off]. *)

val spans_on : t -> bool
(** [level >= Spans]. *)

val full_on : t -> bool
(** [level = Full]. *)

val recorder : t -> Recorder.t
(** The flight recorder: the lone lane's ring at K = 1; at K >= 2 a
    freshly merged view of the per-lane rings, identical to the K = 1
    ring (the determinism contract). *)

val attach : t -> lanes:int -> stamp:(unit -> int * float * int * int) -> unit
(** Bind the sink to its engine: one fresh recorder per engine lane (each
    with the configured capacity), and every {!record} stamped by [stamp]
    — [Engine.stamp], the running event's [(lane, time, tie, sub)].  Done
    once by [Cluster.create]; a no-op on {!null}.  Before it, records go
    to a single recorder stamped at time 0. *)

val probes : t -> Probes.t

val probe_every : t -> int

val record : t -> server:int -> Event.t -> unit
(** Stamp and store one event.  No-op below [Counters]; finer gating
    (which events exist at which level) is the call site's job via the
    [*_on] guards. *)
