(** Online summary statistics.

    {!t} is a Welford accumulator: O(1) memory, numerically stable mean and
    variance.  Quantile readouts live in the obs library's [Hist]. *)

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
