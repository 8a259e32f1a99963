(** Fault-injectable network model.

    Every simulated message traverses the network exactly once, through
    {!transmit}: the model decides whether the message is delivered (and
    after what latency), silently lost, or blocked by an active partition.
    All randomness flows through the [Splitmix] generator supplied at
    creation, so a run is bit-for-bit reproducible from a seed — the
    deterministic-simulation-testing discipline: the same seed must yield
    the same verdict and latency stream, fault injection included.

    The model is deliberately memoryless per message (iid loss, iid
    latency); correlated failures are expressed as partitions, installed
    and healed by the test harness at chosen simulation times. *)

(** Per-message latency distribution. *)
type latency =
  | Constant of float  (** every message takes exactly this long *)
  | Uniform of { base : float; jitter : float }
      (** uniform in [[base - jitter, base + jitter]]; requires
          [0 <= jitter <= base] *)
  | Lognormal of { median : float; sigma : float }
      (** heavy-tailed WAN-style latency: [exp(Normal(ln median, sigma))] *)

(** Verdict for one message. *)
type verdict =
  | Delivered of float  (** deliver after the sampled latency *)
  | Lost  (** dropped by iid loss — the sender learns nothing *)
  | Blocked  (** dropped by an active partition *)

type partition_id = int

type t

val create :
  ?loss:float ->
  ?latency:latency ->
  ?obs:Terradir_obs.Obs.t ->
  ?peers:int ->
  rng:Terradir_util.Splitmix.t ->
  unit ->
  t
(** [create ~rng ()] is an ideal network (no loss, zero constant latency)
    until configured otherwise.  [obs] (default the disabled sink)
    receives [Net_lost] / [Net_blocked] events, attributed to the sending
    server; recording never touches [rng].

    [peers] (the sender-id space, ids [0 .. peers-1]) switches the model
    to one randomness stream and one counter set {e per sender}: each
    stream is split off [rng] in id order at creation, and a sender's
    draws then depend only on its own transmission order.  This is what
    makes a multi-domain engine run bit-identical to the sequential one
    — a shared stream would be consumed in nondeterministic global order
    — and it keeps counter writes shard-local.  Without [peers] the
    legacy single-stream model is unchanged.
    @raise Invalid_argument if [loss] is outside [0, 1], [peers < 1], or
    the latency parameters are invalid (negative times, [jitter > base],
    non-positive median, negative sigma). *)

val set_loss : t -> float -> unit
(** Change the iid per-message loss probability.  @raise Invalid_argument
    outside [0, 1]. *)

val loss : t -> float

val set_latency : t -> latency -> unit
(** @raise Invalid_argument on invalid parameters (see {!create}). *)

val sample_latency : t -> float
(** Draw one latency from the current distribution (always >= 0), using
    the shared creation-time stream — test/diagnostic use; {!transmit}
    draws from the per-sender stream when [peers] was given. *)

val min_latency : t -> float
(** Infimum of the current latency distribution: [Constant d] gives [d],
    [Uniform] gives [base - jitter], [Lognormal] gives [0.] (unbounded
    below in spirit).  The conservative engine's lookahead: no message
    sent at time [t] can act before [t + min_latency]. *)

val partition : ?directed:bool -> t -> a:int list -> b:int list -> partition_id
(** [partition t ~a ~b] makes every message from a server in [a] to a
    server in [b] — and, unless [directed] (default false), from [b] to
    [a] — return [Blocked] until the partition is healed.  Partitions
    stack: a pair is blocked while {e any} active partition covers it.
    @raise Invalid_argument if either side is empty or the sides
    intersect. *)

val heal : t -> partition_id -> unit
(** Remove one partition.  Unknown or already-healed ids are ignored
    (healing is idempotent). *)

val heal_all : t -> unit

val blocked : t -> src:int -> dst:int -> bool
(** Whether an active partition currently blocks [src -> dst].  Pure
    observation: no RNG draw, no counter update. *)

val transmit : t -> src:int -> dst:int -> verdict
(** Decide one message's fate: partition check first (no RNG), then the
    loss draw, then the latency draw.  Loopback ([src = dst]) is never
    lost or blocked.  Updates the delivery counters. *)

(** Cumulative {!transmit} counters, for metrics export. *)
val delivered : t -> int

val lost : t -> int

val blocked_count : t -> int
