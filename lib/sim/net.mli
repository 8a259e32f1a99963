(** Fault-injectable network model.

    Every simulated message traverses the network exactly once, through
    {!transmit}: the model decides whether the message is delivered (and
    after what latency), silently lost, or blocked by an active partition.
    It only decides: counting and recording a fate is the caller's job.
    All randomness flows from the [Splitmix] generator supplied at
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

(** Verdict for one message. *)
type verdict =
  | Delivered of float  (** deliver after the sampled latency *)
  | Lost  (** dropped by iid loss — the sender learns nothing *)
  | Blocked  (** dropped by an active partition *)

type partition_id = int

type t

val create : ?loss:float -> ?latency:latency -> peers:int -> rng:Terradir_util.Splitmix.t -> unit -> t
(** [create ~peers ~rng ()] is an ideal network (no loss, zero constant
    latency) until configured otherwise, for senders [0 .. peers-1].

    Each sender draws from a randomness stream of its own, split off
    [rng] in id order at creation, so a sender's draws depend only on its
    own transmission order.  This is what makes a multi-domain engine run
    bit-identical to the sequential one: a shared stream would be
    consumed in nondeterministic global order.

    The initial latency's {!min_latency} is the network's floor for good:
    the engine's lookahead is taken from it, and {!set_latency} never
    lowers it.
    @raise Invalid_argument if [loss] is outside [0, 1], [peers < 1], or
    the latency parameters are invalid (negative times, [jitter > base]). *)

val set_loss : t -> float -> unit
(** Change the iid per-message loss probability.  @raise Invalid_argument
    outside [0, 1]. *)

val set_latency : t -> latency -> unit
(** @raise Invalid_argument on invalid parameters (see {!create}), or if
    the model's {!min_latency} is below the floor fixed at creation —
    at every engine shard count, since a lower floor would break the
    lookahead only at K >= 2. *)

val min_latency : t -> float
(** Infimum of the current latency distribution: [Constant d] gives [d],
    [Uniform] gives [base - jitter].  The conservative engine's lookahead:
    no message sent at time [t] can act before [t + min_latency]. *)

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

val transmit : t -> src:int -> dst:int -> verdict
(** Decide one message's fate: partition check first (no RNG draw), then
    the loss draw, then the latency draw, both from [src]'s stream.
    Loopback ([src = dst]) is never lost or blocked. *)
