(** Figure 3: fraction of queries dropped every second (relative to λ) over
    time, namespace N_S, λ = 20000 q/s paper scale.

    Five curves: unif and uzipf at orders 0.75–1.50.  The uzipf streams
    begin with staggered uniform warmups; each Zipf segment re-ranks node
    popularity instantly, producing the paper's drop spikes that the
    replication protocol then flattens. *)

type result = {
  duration : float;
  scaled_rate : float;
  series : (string * float array) list;  (** per-second drop fraction *)
}

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result

val tables : result -> Terradir_util.Tablefmt.table list
(** [fig3_drop_fraction] (the series) and [fig3_summary] (scaled λ, mean
    and peak drop fraction per stream). *)
