open Terradir
open Terradir_util

type result = {
  duration : float;
  scaled_rate : float;
  series : (string * float array) list;
}

let run ?scale ?(duration = 250.0) ?(seed = 42) () =
  let scaled_rate, series =
    Runner.per_second_streams ?scale ~seed Common.NC ~paper_rate:Common.paper_lambda_fig4
      ~duration (fun m -> m.Metrics.replicas_ts)
  in
  { duration; scaled_rate; series }

let tables r =
  let f = Printf.sprintf in
  [
    Tablefmt.of_series ~name:"fig4_replica_creation" ~index_label:"second" r.series;
    {
      Tablefmt.name = "fig4_summary";
      header = [ "stream"; "lambda_scaled"; "replicas_created" ];
      rows =
        List.map
          (fun (label, fr) ->
            [ label; f "%.6f" r.scaled_rate; f "%.0f" (Array.fold_left ( +. ) 0.0 fr *. r.scaled_rate) ])
          r.series;
    };
  ]
