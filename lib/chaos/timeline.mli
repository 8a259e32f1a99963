(** A fault timeline: actions at offsets (seconds) from the campaign
    start, kept sorted by time.  Same-time actions apply in declaration
    order (the sort is stable). *)

type t

val make : (float * Action.t) list -> t
(** @raise Invalid_argument on a negative, NaN or infinite time. *)

val entries : t -> (float * Action.t) list
(** Sorted ascending by time. *)

val first_time : t -> float option
(** Offset of the earliest action; [None] for an empty timeline.  The
    report's baseline is measured over the windows that end before it. *)
