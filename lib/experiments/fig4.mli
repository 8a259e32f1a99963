(** Figure 4: fraction of replicas created every second (relative to λ) over
    time, namespace N_C (Coda-like), λ = 40000 q/s paper scale (the paper
    doubles the rate on N_C to hold utilization roughly constant).

    Spikes align with warmup (hierarchical stabilization) and with each
    instantaneous popularity re-ranking; between shifts the creation rate
    decays as the configuration adapts. *)

type result = {
  duration : float;
  scaled_rate : float;
  series : (string * float array) list;  (** per-second replica-creation fraction *)
}

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result

val tables : result -> Terradir_util.Tablefmt.table list
(** [fig4_replica_creation] (the series) and [fig4_summary] (scaled λ and
    total replicas created per stream). *)
