(** Figure 3: fraction of queries dropped every second (relative to λ) over
    time, namespace N_S, λ = 20000 q/s paper scale.

    Five curves: unif and uzipf at orders 0.75–1.50.  The uzipf streams
    begin with staggered uniform warmups; each Zipf segment re-ranks node
    popularity instantly, producing the paper's drop spikes that the
    replication protocol then flattens. *)

open Terradir
open Terradir_util

type result = {
  duration : float;
  scaled_rate : float;
  series : (string * float array) list;  (** per-second drop fraction *)
}

let run ?scale ?(duration = 250.0) ?(seed = 42) () =
  let scaled_rate, series =
    Runner.per_second_streams ?scale ~seed Common.NS ~paper_rate:Common.paper_lambda_fig3
      ~duration (fun m -> m.Metrics.drops_ts)
  in
  { duration; scaled_rate; series }

let tables r =
  let f = Printf.sprintf "%.6f" in
  [
    Tablefmt.of_series ~name:"fig3_drop_fraction" ~index_label:"second" r.series;
    {
      Tablefmt.name = "fig3_summary";
      header = [ "stream"; "lambda_scaled"; "mean_drop_fraction"; "peak_drop_fraction" ];
      rows =
        List.map
          (fun (label, fr) ->
            let total = Array.fold_left ( +. ) 0.0 fr in
            let peak = Array.fold_left Float.max 0.0 fr in
            [ label; f r.scaled_rate; f (total /. float_of_int (Array.length fr)); f peak ])
          r.series;
    };
  ]
