(** Online summary statistics.

    {!t} is a running accumulator: O(1) memory, a numerically stable
    mean, extremes and total.  Quantile readouts live in the obs
    library's [Hist]. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0.0 when empty. *)

val min_value : t -> float
(** @raise Invalid_argument when empty. *)

val max_value : t -> float
(** @raise Invalid_argument when empty. *)

val total : t -> float
(** Sum of all samples. *)

val merge : t -> t -> t
(** Statistics of the union of the two sample streams. *)
