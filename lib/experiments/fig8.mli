(** Figure 8: stabilization and long-term behavior — replicas created per
    minute over a long run, for unif and uzipf1.00 on both namespaces.

    With no change in the input pattern after the (single) Zipf onset, the
    creation rate decays like an exponential toward quiescence: the paper
    reaches ~2.x replicas/minute after 10000 s (≈ one replica per several
    hundred thousand queries).  The uzipf streams here use a 100 s uniform
    prefix and {e no} re-rankings. *)

type series = { label : string; per_minute : float array; final_rate : float }

type result = { duration : float; runs : series list }

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result

val tables : result -> Terradir_util.Tablefmt.table list
(** [fig8_replicas_per_minute] and [fig8_rates] (first- and final-minute
    counts per stream). *)
