(** Deterministic pseudo-random number generation (SplitMix64).

    All randomness in the simulator flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    the SplitMix64 algorithm of Steele, Lea and Flood (OOPSLA 2014): a 64-bit
    state advanced by a Weyl constant and finalized with an avalanche mixer.
    It is fast, has a period of 2^64, and passes BigCrush. *)

type t
(** Mutable generator state: one 16-byte block holding the 64-bit state
    and the draw count, both updated in place without boxing.  A draw
    allocates only a boxed float result: {!int} allocates nothing,
    {!float} 2 words when its result is boxed at the call. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Generators created from the
    same seed produce identical streams. *)

val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val split : t -> t
(** [split g] derives a new generator from [g]'s stream, advancing [g].
    Streams of the parent and child are statistically independent; use this
    to hand sub-seeds to subsystems without coupling their draws. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val draws : t -> int
(** Number of raw 64-bit outputs drawn so far ([copy] preserves the count;
    [split] starts the child at 0).  Rejection sampling in {!int} may draw
    more than once per call — this counts actual state advances, which is
    the equivalence-test currency for "same rng consumption". *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)], by rejection sampling over 62-bit
    draws; allocates nothing.  @raise Invalid_argument if [n <= 0]. *)

val float : t -> float -> float
(** [float g x] is uniform in [\[0, x)] (53-bit mantissa resolution). *)

val exponential : t -> float -> float
(** [exponential g mean] draws from Exp with the given mean (inverse-CDF). *)

val permutation : t -> int -> int array
(** [permutation g n] is a uniformly random permutation of [0..n-1]. *)
