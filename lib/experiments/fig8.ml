open Terradir
open Terradir_util
open Terradir_workload

type series = { label : string; per_minute : float array; final_rate : float }

type result = { duration : float; runs : series list }

let run ?scale ?(duration = 1200.0) ?(seed = 42) () =
  let ns = Common.make ?scale ~seed Common.NS and nc = Common.make ?scale ~seed Common.NC in
  let specs =
    [
      ("unifS", ns, Common.paper_lambda_fig3, None);
      ("uzipfS1.00", ns, Common.paper_lambda_fig3, Some 1.00);
      ("unifC", nc, Common.paper_lambda_fig4, None);
      ("uzipfC1.00", nc, Common.paper_lambda_fig4, Some 1.00);
    ]
  in
  (* One pool cell per (namespace, stream) spec — fig8 runs are the
     longest in the suite, so this is where fan-out pays the most. *)
  let runs =
    Runner.map
      (fun (label, setup, paper_rate, alpha) ->
        let rate = setup.Common.rate paper_rate in
        let phases =
          match alpha with
          | None -> Stream.unif ~rate ~duration
          | Some alpha ->
            (* §4.4: uniform component of 100 s, then one unshifted Zipf
               phase for the rest of the run. *)
            Stream.uzipf ~rate ~warmup:100.0 ~alpha ~shift_every:(duration -. 100.0) ~shifts:1
        in
        let cluster = Runner.run_phases setup phases in
        let per_second = Timeseries.sums (Cluster.metrics cluster).Metrics.replicas_ts in
        let minutes = (int_of_float duration + 59) / 60 in
        let per_minute =
          Array.init minutes (fun m ->
              let acc = ref 0.0 in
              for s = 60 * m to min ((60 * (m + 1)) - 1) (Array.length per_second - 1) do
                acc := !acc +. per_second.(s)
              done;
              !acc)
        in
        let final_rate =
          if minutes = 0 then 0.0
          else per_minute.(minutes - 1)
        in
        { label; per_minute; final_rate })
      specs
  in
  { duration; runs }

let tables r =
  let f = Printf.sprintf "%.6f" in
  [
    Tablefmt.of_series ~name:"fig8_replicas_per_minute" ~index_label:"minute"
      (List.map (fun s -> (s.label, s.per_minute)) r.runs);
    {
      Tablefmt.name = "fig8_rates";
      header = [ "stream"; "first_minute"; "final_minute" ];
      rows =
        List.map
          (fun s ->
            [
              s.label;
              f (if Array.length s.per_minute > 0 then s.per_minute.(0) else 0.0);
              f s.final_rate;
            ])
          r.runs;
    };
  ]
