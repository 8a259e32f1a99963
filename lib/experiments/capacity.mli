(** Capacity macro-benchmark: a single large uniform-stream run sized in
    {e queries} rather than simulated seconds, with an {e analytic}
    injection rate in place of the usual calibration probe (a probe at
    100k servers would cost as much as the measurement).

    The rate is {!Common.analytic_rate} at ρ = 0.5, the namespace
    {!Terradir_namespace.Build.balanced_for} and the config
    {!Common.fig9_sizing}.

    At reference scale ([scale = 1.0], or [bench/capacity.ml]'s defaults)
    the scenario is 100 000 servers and an expected 2 100 000 queries.
    Mean utilization lands well under the target, but at full scale the
    top of the tree still saturates transiently while caches and replicas
    warm, so a nontrivial drop fraction is expected — the run measures
    engine throughput, and the drop fraction documents protocol behavior
    at that scale rather than invalidating the measurement.
    Every reported field is deterministic for a given (servers, queries,
    seed) — wall-clock and memory measurement live in the caller. *)

(** One measured slice of the run — warmup (cold caches, stores still
    growing) versus steady state (the hot path the zero-allocation work
    gates).  GC words are process-level measurements, not simulation
    outputs: they stay out of {!tables} and the golden CSV. *)
type phase_gc = {
  pg_phase : string;  (** ["warmup"] or ["steady_state"] *)
  pg_events : int;  (** engine events executed in the slice *)
  pg_minor_words : float;
  pg_promoted_words : float;
  pg_major_words : float;
  pg_minor_collections : int;
  pg_major_collections : int;
}

type result = {
  servers : int;
  domains : int;
      (** engine domains the run actually executed on (after the engine's
          fallback/clamp rules) — reported for the bench harness, and
          deliberately absent from {!tables}: the golden CSV must stay
          byte-identical for any domain count *)
  nodes : int;
  rate : float;  (** analytic injection rate, queries/s *)
  sim_duration : float;  (** simulated seconds driven *)
  events : int;  (** engine events executed *)
  injected : int;
  resolved : int;
  dropped : int;
  drop_fraction : float;
  mean_hops : float;
  mean_latency : float;
  replicas_created : int;
  phases : phase_gc list;
      (** [[warmup; steady_state]]: the run is driven in two [run_until]
          slices split at a quarter of the stream duration, with a
          [Gc.quick_stat] delta around each.  The engine is time-ordered,
          so the split replays the same events.  Word deltas are exact for
          the driving domain; engine lanes of a K >= 2 run fold in only as
          they are joined. *)
}

val reference_servers : int
(** 100 000 — the scale-1 deployment size. *)

val reference_queries : int
(** 2 100 000 — the scale-1 expected query count (the margin over two
    million absorbs Poisson fluctuation in the realized count). *)

val run :
  ?servers:int ->
  ?queries:int ->
  ?domains:int ->
  ?scale:float ->
  ?seed:int ->
  unit ->
  result
(** [servers]/[queries] override the [scale]-derived sizes (defaults:
    [reference_servers]·scale and [reference_queries]·scale, scale 1/16).
    [queries] is an expectation — arrivals are Poisson, so the realized
    [injected] count varies (deterministically) with the seed.
    [domains] pins the engine-domain count for this run; when absent the
    {!Runner.engine_domains} override (CLI / [TERRADIR_ENGINE_DOMAINS])
    applies, else the config default.  Every reported field except
    [domains] and [phases] is byte-identical for any domain count.
    @raise Invalid_argument on scale outside (0,1], servers < 8,
    queries < 1, or domains < 1. *)

val tables : result -> Terradir_util.Tablefmt.table list
(** [capacity]: (metric, value) rows of every field but [domains] and
    [phases]. *)
