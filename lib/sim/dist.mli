(** Random-variate samplers used by the evaluation methodology (§4.1).

    - exponential service times (via {!Terradir_util.Splitmix.exponential});
    - Poisson arrival processes (exponential inter-arrival gaps);
    - the Zipf law of popularity vs. ranking, for locality query streams. *)

val poisson_gap : Terradir_util.Splitmix.t -> rate:float -> float
(** Next inter-arrival gap of a Poisson process with the given rate (events
    per unit time).  @raise Invalid_argument if [rate <= 0]. *)

module Zipf : sig
  (** Sampler for P(rank = k) ∝ 1/k^alpha over ranks 1..n, by inverse-CDF
      lookup with binary search (O(log n) per draw after O(n) setup). *)

  type t

  val create : alpha:float -> n:int -> t
  (** @raise Invalid_argument if [n <= 0] or [alpha < 0]. *)

  val alpha : t -> float

  val sample : t -> Terradir_util.Splitmix.t -> int
  (** A rank in [0 .. n-1] (0 = most popular). *)

  val probability : t -> int -> float
  (** [probability z k] for rank [k] in [0 .. n-1]. *)
end
