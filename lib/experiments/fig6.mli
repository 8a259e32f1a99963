(** Figure 6: utilization and load balance.  N_S under uzipf1.00 with
    instant re-rankings, at three arrival rates (paper λ = 4000, 10000,
    20000 ≈ utilizations 0.15 / 0.4 / 0.8).

    Left panel: per-second mean and maximum server load — peaks follow each
    popularity shift, and the maximum sinks back toward T_high given time.
    Right panel: the maximum averaged over an 11-second window, showing the
    transiency of highly-loaded conditions. *)

type series = {
  label : string;
  mean_load : float array;
  max_load : float array;
  smoothed_max : float array;  (** 11-second trailing average of the max *)
}

type result = { duration : float; runs : series list }

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result

val tables : result -> Terradir_util.Tablefmt.table list
(** [fig6_load] (left panel), [fig6_smoothed_max] (right panel) and
    [fig6_summary] (per-run time-averages of the three). *)
