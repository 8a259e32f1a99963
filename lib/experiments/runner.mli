(** Shared experiment driver: build a cluster for a setup, run a stream,
    hand back the cluster for measurement — plus the multicore fan-out that
    dispatches independent (figure, stream, seed) cells over a domain pool.

    {b Concurrency model.}  Every cell is a self-contained closure: it
    builds its own {!Common.setup} (fresh tree, fresh calibration), its own
    [Cluster] (fresh engine, fresh [Splitmix] streams), and touches no
    state shared with any other cell.  Results are therefore bit-identical
    for any jobs count; parallelism only changes wall-clock. *)

val jobs : unit -> int
(** Fan-out width used by {!map}: the value pinned by {!set_jobs} /
    {!with_jobs} if any, else the [TERRADIR_JOBS] environment variable,
    else [Domain.recommended_domain_count () - 1].  [1] is the sequential
    path (no domain is spawned). *)

val set_jobs : int option -> unit
(** Pin (or unpin, with [None]) the fan-out width, overriding the
    environment.  Test binaries pin [Some 1] so [dune runtest] stays on the
    sequential path by default.  Main-domain only. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** Run a thunk with the fan-out width pinned, restoring the previous
    setting afterwards (also on exceptions). *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [Terradir_util.Pool.map] at {!jobs} domains: order-preserving,
    exception-propagating.  Cells must be self-contained closures (see the
    concurrency model above). *)

val set_engine_domains : int option -> unit
(** Pin (or unpin, with [None]) the engine-domain override: domains
    INSIDE each simulation's event engine, orthogonal to {!jobs}.
    Unpinned, the [TERRADIR_ENGINE_DOMAINS] environment variable sets
    it; unset, each config keeps its own [engine_domains].  Every metric,
    CSV and trace is byte-identical for any value.  Main-domain only,
    like {!set_jobs}. *)

val with_engine_config : Terradir.Config.t -> Terradir.Config.t
(** The config with the engine-domain override applied when an override is in
    effect; the config unchanged otherwise.  {!run_phases} applies this to
    every cluster it builds; drivers that build clusters themselves (the
    capacity figure, benches) call it explicitly. *)

val with_obs :
  level:Terradir_obs.Obs.level -> ?probe_every:int -> (unit -> 'a) -> 'a
(** Run a thunk with the observability (level, probe cadence) that
    {!run_phases} gives every cluster it builds pinned, restoring the
    previous setting afterwards (also on exceptions).  Each cell gets its
    own fresh sink — sinks are per-cluster mutable state and are never
    shared across domains; the sink is reachable from the returned cluster
    ([Cluster.obs]).  Main-domain only, like {!set_jobs}; outside it,
    clusters are built on the shared null sink.  [probe_every] defaults to
    2000 engine events. *)

val events_executed : unit -> int
(** Total engine events executed by every {!run_phases} call so far, summed
    across domains (monotonic; the benchmark harness reads deltas). *)

val record_events : Terradir.Cluster.t -> unit
(** Fold a cluster's engine-event count into {!events_executed} — for
    drivers that run {!Terradir_workload.Scenario.run} themselves instead
    of going through {!run_phases}. *)

val minor_words_allocated : unit -> int
(** Minor-heap words allocated inside every instrumented region so far —
    the GC-pressure twin of {!events_executed}; the bench harness divides
    deltas of the two to report words per event.  Regions are
    {!run_phases} calls plus deltas folded in by {!add_alloc}. *)

val promoted_words_allocated : unit -> int
(** Words promoted from the minor to the major heap inside instrumented
    regions (same accounting as {!minor_words_allocated}). *)

val add_alloc : minor:int -> promoted:int -> unit
(** Fold externally measured word deltas into the counters — for drivers
    (the capacity figure) that take their own phase-resolved
    [Gc.quick_stat] deltas. *)

val record_alloc : (unit -> 'a) -> 'a
(** Run a thunk as an instrumented region: the words it allocates on the
    calling domain are folded into the counters — for drivers that build
    and run their clusters themselves instead of through {!run_phases}. *)

val run_phases :
  ?workload_seed:int ->
  Common.setup ->
  Terradir_workload.Stream.phase list ->
  Terradir.Cluster.t
(** Fresh cluster from the setup, driven through the phases to completion
    (2 s drain). *)

val named_streams :
  Common.setup ->
  paper_rate:float ->
  duration:float ->
  (string * Terradir_workload.Stream.phase list) list
(** The paper's five standard streams: [unif] plus [uzipf] at each order in
    {!Common.zipf_orders}, labelled "unif", "uzipf0.75", …. *)

val per_second_streams :
  ?scale:float ->
  seed:int ->
  Common.namespace ->
  paper_rate:float ->
  duration:float ->
  (Terradir.Metrics.t -> Terradir_util.Timeseries.t) ->
  float * (string * float array) list
(** The {!named_streams} on a namespace, one pool cell each, reported as
    the chosen metrics series per second over the scaled rate: one bin per
    simulated second of [duration], empty bins [0].  Returns the scaled
    rate with the per-stream fractions (Figs. 3 and 4). *)
