(** Drive a cluster through a query stream.

    Schedules Poisson query arrivals phase by phase (uniform source server,
    stream-sampled destination) and runs the simulation to the end of the
    stream (plus a drain allowance so in-flight lookups finish).

    {!start} exposes the underlying machinery without the blocking run:
    it installs a stream on the cluster's engine and returns a {!driver}
    handle, so an outer controller (the chaos scenario engine) can lay
    faults, rate shifts, and extra streams over it before calling
    [Cluster.run_until] itself. *)

type driver
(** A live injected stream: phase transitions and the Poisson arrival
    chain are already scheduled on the cluster's engine. *)

val start :
  ?fetch_probability:float ->
  ?on_phase:(int -> Stream.phase -> unit) ->
  Terradir.Cluster.t ->
  phases:Stream.phase list ->
  seed:int ->
  driver
(** Install the stream starting at the engine's current time and return
    its handle.  Does {e not} run the engine.  Parameters as in {!run}.
    With the rate factor left at 1.0 the stream is byte-identical to the
    one {!run} has always scheduled (the multiplier is exact: [x *. 1.0
    = x]).
    @raise Invalid_argument as {!Stream.check_phases} does. *)

val stream_end : driver -> float
(** Simulation time of the last possible arrival (stream start + total
    phase duration). *)

val set_rate_factor : driver -> float -> unit
(** Scale the stream's arrival rate from now on: the next Poisson gap is
    drawn at [phase_rate *. factor].  Takes effect on the gap drawn after
    the call (arrivals already scheduled keep their times) — call it from
    an event scheduled on the same engine for deterministic alignment.
    @raise Invalid_argument unless the factor is positive and finite. *)

val run :
  ?drain:float ->
  ?on_phase:(int -> Stream.phase -> unit) ->
  ?fetch_probability:float ->
  Terradir.Cluster.t ->
  phases:Stream.phase list ->
  seed:int ->
  unit
(** [run cluster ~phases ~seed] executes the whole stream.  [drain]
    (default 2 s) extends the run past the last arrival.  [on_phase] is
    called at each phase start (e.g. to log shift times).
    [fetch_probability] (default 0: lookups only, the paper's methodology)
    makes that fraction of resolved lookups proceed to step two — a data
    fetch from the resolved map's hosts ("few of the objects looked up
    ... are effectively retrieved", §1).
    @raise Invalid_argument as {!Stream.check_phases} does. *)
