open Terradir
open Terradir_util

type series = {
  label : string;
  mean_load : float array;
  max_load : float array;
  smoothed_max : float array;
}

type result = { duration : float; runs : series list }

let paper_rates = [ 4000.0; 10000.0; 20000.0 ]

let smoothing_window = 11

let run ?scale ?(duration = 250.0) ?(seed = 42) () =
  (* One setup; one pool cell per arrival rate. *)
  let setup = Common.make ?scale ~seed Common.NS in
  let runs =
    Runner.map
      (fun paper_rate ->
        let phases = Common.uzipf_stream setup ~paper_rate ~alpha:1.00 ~duration in
        let cluster = Runner.run_phases setup phases in
        let m = Cluster.metrics cluster in
        {
          label = Printf.sprintf "lambda=%.0f" paper_rate;
          mean_load = Timeseries.means m.Metrics.load_mean_ts;
          max_load = Timeseries.maxima m.Metrics.load_max_ts;
          smoothed_max = Timeseries.smoothed_max m.Metrics.load_max_ts ~window:smoothing_window;
        })
      paper_rates
  in
  { duration; runs }

let tables r =
  let mean a =
    if Array.length a = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)
  in
  let f x = Printf.sprintf "%.6f" (mean x) in
  [
    Tablefmt.of_series ~name:"fig6_load" ~index_label:"second"
      (List.concat_map
         (fun s -> [ (s.label ^ "_avg", s.mean_load); (s.label ^ "_max", s.max_load) ])
         r.runs);
    Tablefmt.of_series ~name:"fig6_smoothed_max" ~index_label:"second"
      (List.map (fun s -> (s.label ^ "_max11", s.smoothed_max)) r.runs);
    {
      Tablefmt.name = "fig6_summary";
      header = [ "run"; "mean_of_mean_load"; "mean_of_max"; "mean_of_max11" ];
      rows =
        List.map (fun s -> [ s.label; f s.mean_load; f s.max_load; f s.smoothed_max ]) r.runs;
    };
  ]
