(** Discrete-event simulation engine — sequential, or sharded across
    OCaml 5 domains with conservative synchronized windows.

    A simulation is a clock plus a priority queue of timestamped thunks.
    [run] repeatedly pops the earliest event, advances the clock to its
    timestamp, and executes it; handlers schedule further events.

    Events are totally ordered by a canonical, partition-independent key:
    (timestamp, tie), where the tie-break combines the {e executing}
    context id with a per-context monotone counter.  Because the order
    never references global insertion order, it is identical for every
    shard count [K] — byte-identical simulation outputs at K = 1, 2, 4…
    are the engine's core contract (test-enforced).

    Lanes: K = 1 is one lane.  K >= 2 is K shard lanes plus one
    coordinator lane (index K) that holds every pseudo-context event
    (driver and sync) and runs each of them solo between windows.

    The engine is deliberately minimal: processes, queues, and resources
    are modeled by the TerraDir layer on top of it. *)

type t

val create : ?domains:int -> ?lookahead:float -> ?shard_of:int array -> unit -> t
(** Fresh engine with the clock at 0, laid out for good.  Each lane's
    event queue is the binary heap {!Terradir_util.Pqueue}.

    [domains] (default 1) is the shard lane count K; [shard_of.(c)] is
    the lane of context [c] (servers, in the TerraDir layer), and its
    length is the context count; [lookahead] must be a positive lower
    bound on every cross-context scheduling delay — the minimum network
    latency.  The defaults are the sequential one-lane engine, which
    ignores [lookahead] and the assignment.
    @raise Invalid_argument if [domains < 1], the context count reaches
    the tie's limit, or, with [domains > 1], [lookahead <= 0] or an
    assignment is out of range. *)

val domains : t -> int
(** The shard count K given at creation. *)

val sync_ctx : int
(** Pseudo-context [-2]: cross-shard readers (the load monitor).  Always
    executed solo, with every lane idle. *)

val now : t -> float
(** Current simulation time — of the calling domain's lane while inside
    an event, of the coordinator between events. *)

val ctx : t -> int
(** Context (owner) of the event being executed on the calling domain;
    [-1] between events.  The TerraDir layer uses this to decide whether
    a completion may run inline or must be re-scheduled to its owner. *)

val lane_count : t -> int
(** Number of engine lanes, for per-lane metric and obs sinks: K shard
    lanes plus the coordinator lane when K >= 2; exactly 1 when K = 1. *)

val lane_index : t -> int
(** Index in [0, lane_count) of the calling domain's current lane (the
    coordinator lane between events) — the slot for per-lane sinks. *)

val stamp : t -> int * float * int * int
(** [(lane, time, tie, sub)] of the currently executing event, bumping
    the intra-event emission counter [sub] — a canonical, K-independent
    sort key for merged observability records.  Between events it is the
    coordinator lane's, with [tie = 0]. *)

val schedule : ?owner:int -> t -> delay:float -> (unit -> unit) -> unit
(** [schedule ~owner t ~delay f] runs [f], in context [owner], at
    [now t +. delay].  [owner] is the server id whose state [f] touches
    (default [-1], the workload-driver pseudo-context of arrival chains
    and phase transitions: such events read no shard-owned state and run
    solo on the coordinator lane); with [domains > 1] it selects the lane.
    Cross-lane schedules from inside a window must satisfy the lookahead
    ([delay >=] minimum network latency).
    @raise Invalid_argument if [delay] is negative or not finite, or on
    a lookahead violation. *)

val schedule_at : ?owner:int -> t -> float -> (unit -> unit) -> unit
(** Absolute-time variant. @raise Invalid_argument when scheduling into
    the past. *)

val pending : t -> int
(** Number of events not yet executed. *)

val next_time : t -> float option
(** Timestamp of the earliest pending event, if any. *)

val add_observer : t -> every:int -> (unit -> unit) -> unit
(** Register an observer hook, run strictly {e between} events — handlers
    never see it mid-flight.  One rule for every K: it runs at the first
    check after each [every]-multiple of executed events is crossed.
    Checks happen after each event at K = 1 (so it runs after every
    [every]-th event) and after each barrier (window or solo event) at
    K >= 2 — the same points for every K >= 2, since the window schedule
    is K-independent.  Hooks must not schedule events or
    otherwise perturb the simulation; they exist for auditing and
    observation (invariant checks, probes).  Observers fire in
    registration order; several may share a cadence.
    @raise Invalid_argument if [every < 1]. *)

val run : ?until:float -> t -> unit
(** Execute events in canonical key order.  With [until], stops (without
    executing them) at the first event strictly after [until] and
    advances the clock to [until]; without it, runs until the queues
    drain.  With [domains > 1], spawns the worker gang for the duration
    of the call.  @raise Invalid_argument if [until] is before [now]. *)

val step : t -> bool
(** Execute exactly the next event.  [false] when the queue is empty.
    @raise Invalid_argument on a multi-domain engine. *)

val events_executed : t -> int
(** Total events executed since creation (simulation-cost accounting). *)
