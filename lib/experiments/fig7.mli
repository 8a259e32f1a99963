(** Figure 7: average replicas per node at each namespace level, N_S, for
    unif and uzipf1.00 at three arrival rates — replication concentrates
    near the root, where hierarchical bottlenecks form. *)

type series = { label : string; per_level : float array }

type result = { runs : series list }

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result

val tables : result -> Terradir_util.Tablefmt.table list
(** [fig7_replicas_per_level]: one column per run, one row per level. *)
