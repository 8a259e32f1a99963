(** Log-bucketed histogram (HDR-style) for latency and hop distributions.

    Values are binned into 16 sub-buckets per power-of-two octave, which
    bounds the relative error of any quantile readout by about 3% while
    [count]/[sum]/[min_value]/[max_value] stay exact.  Adding is O(1),
    allocation-free, and consumes no randomness, so histograms can live inside the simulation
    without perturbing determinism.

    Values [<= 0] (and NaN) all share a single underflow bucket. *)

type t

val create : unit -> t

val reset : t -> unit

val add : t -> float -> unit

val absorb : into:t -> t -> unit
(** Accumulate [src]'s integer state (bucket counts and total count)
    into [into] — exact under any merge order.  The float moments
    (sum/min/max) are {e not} merged: partial float sums are
    partition-dependent, so after absorbing every part the caller must
    {!set_moments} from a K-independent source (the per-server [Stats]
    fold that saw the identical value stream). *)

val diff : t -> since:t -> t
(** [diff t ~since] is the histogram of the values added between the
    [since] snapshot and [t] (two cumulative histograms of the same value
    stream): bucket counts and the total subtract exactly.  The window's
    true extremes are unknown, so min/max are taken from the occupied
    bucket range (midpoints) — windowed quantiles carry the usual bucket
    error at the edges too.  Deterministic for any engine shard count.
    @raise Invalid_argument if [since] is not an earlier snapshot of [t]
    (any bucket would go negative). *)

val set_moments : t -> sum:float -> vmin:float -> vmax:float -> unit
(** Overwrite the float moments after {!absorb}.  [vmin]/[vmax] are
    ignored when the histogram is empty. *)

val count : t -> int

val sum : t -> float

val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float
(** Exact smallest added value; 0 when empty. *)

val max_value : t -> float
(** Exact largest added value; 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t q] for [q] in [\[0, 1\]]: the midpoint of the bucket
    holding the [ceil (q * count)]-th smallest value, clamped to the exact
    observed [\[min, max\]] range (so [percentile t 1.0 = max_value t]).
    0 when empty.  @raise Invalid_argument if [q] is outside [\[0, 1\]]. *)

val summary_fields : t -> (string * float) list
(** [("count", _); ("mean", _); ("p50", _); ("p95", _); ("p99", _);
    ("max", _)] — the report/bench readout. *)
