(** Normalized server load (§3.1).

    The paper's load metric: the fraction of a fixed window W that the server
    spent busy, a value in [0, 1], locally defined and linearly comparable.
    The value reported to peers and used in replication decisions is the
    {e last completed} window's fraction — with one exception, the
    anti-thrashing adjustment: after a replication session both parties
    substitute the post-shed target load until fresh measurement overwrites
    it (§3.3 step 4). *)

type t

val create : window:float -> t
(** @raise Invalid_argument if [window <= 0]. *)

val begin_busy : t -> float -> unit
(** The server starts serving at the given time.
    @raise Invalid_argument if already busy or time regresses. *)

val end_busy : t -> float -> unit
(** @raise Invalid_argument if not busy. *)

val is_busy : t -> bool

val load : t -> float -> float
(** [load t now]: the reported load — the adjustment if one is pending,
    otherwise the last completed window's busy fraction.  Rolls windows
    forward as a side effect. *)

val raw_load : t -> float -> float
(** Measurement only, ignoring any pending adjustment. *)

val sustained_load : t -> float -> float
(** The minimum of the last two completed windows (0 before two windows
    exist) — a de-noised trigger signal: with ~25 exponential services per
    window, single-window loads fluctuate enough to fire replication
    sessions spuriously; requiring two consecutive high windows does not.
    Respects a pending adjustment the same way {!load} does. *)

val set_adjustment : t -> float -> unit
(** Install the hysteresis value; cleared automatically when the next
    window completes.  Clamped to [0, 1]. *)

val busy_fraction_so_far : t -> float -> float
(** Busy fraction of the {e current, incomplete} window (diagnostics). *)

val total_busy_time : t -> float -> float
(** Cumulative busy seconds up to [now] (utilization accounting). *)
