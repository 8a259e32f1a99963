(** Fixed-interval time series accumulation.

    The paper's figures report per-second (or per-minute) series: dropped
    queries per second, replicas created per second, mean/max load per
    second.  A {!t} buckets samples by timestamp into uniform bins and
    exposes the completed bins as arrays. *)

type t

val create : ?bin:float -> unit -> t
(** [create ~bin ()] buckets into bins of [bin] time units (default 1.0).
    @raise Invalid_argument if [bin <= 0]. *)

val add : t -> float -> float -> unit
(** [add t time value] accumulates [value] into the bin containing [time].
    Times may arrive out of order. @raise Invalid_argument on negative time. *)

val incr : t -> float -> unit
(** [incr t time] is [add t time 1.0] — event counting. *)

val observe_max : t -> float -> float -> unit
(** [observe_max t time value] keeps the max of the values seen in the bin
    (use a separate series from sums). *)

val merge_into : into:t -> t -> unit
(** Accumulate [src]'s bins into [into]: sums add, counts add, maxima
    max.  Counts and maxima are order-independent; sums are bit-exact
    under any partition when every sample is an integral [+1.0]
    increment (the engine's per-lane counter series).
    @raise Invalid_argument if the bin widths differ. *)

val num_bins : t -> int
(** Index of the highest touched bin + 1. *)

val sums : t -> float array
(** Per-bin accumulated sums (untouched bins are 0). *)

val maxima : t -> float array
(** Per-bin maxima (untouched bins are 0). *)

val counts : t -> int array
(** Per-bin number of samples. *)

val means : t -> float array
(** Per-bin sum/count (0 for empty bins). *)

val smoothed_max : t -> window:int -> float array
(** [smoothed_max t ~window] averages the per-bin {e maxima} over a sliding
    window of [window] bins centred as a trailing window — the paper's
    "maximum load averaged over 11 seconds" (Fig. 6, right). *)
