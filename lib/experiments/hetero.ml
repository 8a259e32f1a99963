(** Heterogeneity experiment — §5's closing claim: "the most distinguishing
    feature of [deployed P2P] systems is their heterogeneity.  We believe
    that the adaptive nature of our replication model makes it a
    first-class candidate for exploiting system heterogeneity."

    Setup: same aggregate capacity, but per-server speeds drawn log-uniform
    over a spread of 1 (homogeneous), 4, or 16.  §3.1's load metric is a
    locally-defined busy fraction, so slow servers report high loads early
    and shed their hot nodes toward fast ones with no protocol change.
    Expectation: with adaptive replication (BCR) the drop fraction barely
    moves with the spread; caching alone (BC) degrades, since static
    placement strands hot nodes on slow servers. *)

open Terradir
open Terradir_util

type row = {
  spread : float;
  system : string;
  drop_fraction : float;
  mean_latency : float;
  mean_load_of_max : float;  (** time-average of the per-second max load *)
}

type result = { rows : row list }

let spreads = [ 1.0; 4.0; 16.0 ]

let systems = [ ("BC", Config.bc); ("BCR", Config.bcr) ]

let run ?scale ?(duration = 120.0) ?(seed = 42) () =
  (* One setup per spread, built in the pool; one cell per (spread,
     system) pair, the systems differing only in [features], which the
     calibration probe masks. *)
  let setups =
    Runner.map
      (fun speed_spread ->
        Common.make ?scale ~seed ~config_tweak:(fun c -> { c with Config.speed_spread }) Common.NS)
      spreads
  in
  let specs =
    List.concat
      (List.map2
         (fun spread setup -> List.map (fun sys -> (spread, setup, sys)) systems)
         spreads setups)
  in
  let rows =
    Runner.map
      (fun (spread, (setup : Common.setup), (system, features)) ->
        let setup = { setup with config = { setup.config with Config.features } } in
        let phases = Common.uzipf_stream setup ~paper_rate:10000.0 ~alpha:1.00 ~duration in
        let m = Cluster.metrics (Runner.run_phases setup phases) in
        let maxima = Timeseries.maxima m.Metrics.load_max_ts in
        let mean_of_max =
          if Array.length maxima = 0 then 0.0
          else Array.fold_left ( +. ) 0.0 maxima /. float_of_int (Array.length maxima)
        in
        {
          spread;
          system;
          drop_fraction = Metrics.drop_fraction m;
          mean_latency = Stats.mean m.Metrics.latency;
          mean_load_of_max = mean_of_max;
        })
      specs
  in
  { rows }

let tables r =
  let f = Printf.sprintf in
  [
    {
      Tablefmt.name = "hetero";
      header = [ "spread"; "system"; "drop_fraction"; "latency_s"; "mean_max_load" ];
      rows =
        List.map
          (fun row ->
            [
              f "%.1f" row.spread;
              row.system;
              f "%.6f" row.drop_fraction;
              f "%.6f" row.mean_latency;
              f "%.6f" row.mean_load_of_max;
            ])
          r.rows;
    };
  ]
