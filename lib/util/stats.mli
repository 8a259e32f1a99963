(** Online summary statistics and percentile estimation.

    {!t} is a Welford accumulator: O(1) memory, numerically stable mean and
    variance.  {!Reservoir} adds percentile estimation with bounded memory
    via uniform reservoir sampling (Vitter's algorithm R). *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0.0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0.0 with fewer than two samples. *)

val min_value : t -> float
(** @raise Invalid_argument when empty. *)

val max_value : t -> float
(** @raise Invalid_argument when empty. *)

val total : t -> float
(** Sum of all samples. *)

val merge : t -> t -> t
(** Statistics of the union of the two sample streams (Chan's formula). *)

module Reservoir : sig
  type stats = t

  type t

  val create : ?capacity:int -> Splitmix.t -> t
  (** Default capacity 4096 samples. *)

  val add : t -> float -> unit

  val count : t -> int

  val percentile : t -> float -> float
  (** [percentile r p] for [p] in [\[0,1\]], linear interpolation between
      order statistics of the retained sample.
      @raise Invalid_argument when empty or [p] out of range. *)

  val summary : t -> stats
  (** The exact online summary of {e all} samples seen (not just retained). *)
end
