(** Query streams (§4.1).

    Destinations are drawn either uniformly at random over the namespace
    ([unif] traces) or by the Zipf law of popularity vs. ranking ([uzipf]
    traces), where the popularity ranking is a random permutation of all
    nodes.  Streams are sequences of phases; a Zipf phase created with
    [reshuffle] re-draws the ranking {e instantly} when the phase starts —
    the paper's "arbitrary and instantaneous changes in demand
    distribution" (shifting hot-spots).

    Sources are always chosen uniformly among servers by the driver
    ({!Scenario}). *)

type dist =
  | Uniform
  | Zipf of { alpha : float; reshuffle : bool }

type phase = { duration : float; rate : float; dist : dist }
(** [rate] is the global Poisson query arrival rate during the phase. *)

val uzipf : rate:float -> warmup:float -> alpha:float -> shift_every:float -> shifts:int -> phase list
(** The paper's composite [uzipf] stream: a uniform warmup of [warmup]
    seconds (letting the cold system replicate away hierarchical
    bottlenecks before locality starts), then [shifts] Zipf([alpha])
    segments of [shift_every] seconds, each re-drawing the popularity
    ranking. *)

val unif : rate:float -> duration:float -> phase list

val total_duration : phase list -> float

val check_phases : context:string -> phase list -> unit
(** Reject a phase list no stream can run: empty, or with a rate or
    duration that is not positive and finite (an infinite rate makes
    every arrival gap 0, a NaN one injects nothing).
    @raise Invalid_argument ["<context>: empty phase list"],
    ["<context>: rate must be positive"] or
    ["<context>: duration must be positive"]. *)

(** Mutable destination sampler. *)
type sampler

val sampler : tree:Terradir_namespace.Tree.t -> seed:int -> sampler

val install : sampler -> dist -> unit
(** Enter a phase: build the Zipf CDF for its order and, when the phase
    asks for it, re-rank node popularity. *)

val sample : sampler -> Terradir_namespace.Tree.node
(** Draw a destination under the currently installed distribution
    (uniform before any {!install}). *)

val rank_of_node : sampler -> Terradir_namespace.Tree.node -> int
(** Current popularity rank of a node (0 = hottest); for tests. *)
