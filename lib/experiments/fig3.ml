open Terradir
open Terradir_util

type result = {
  duration : float;
  scaled_rate : float;
  series : (string * float array) list;
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
