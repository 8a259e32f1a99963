(** §4.4 ablation (summarized in the paper without a figure): low
    replication factors under repeatedly shifting high-order hot-spots
    (uzipf1.50), with inverse-mapping digests, without them, and against
    the oracle (routing with perfectly accurate host maps).

    Low r_fact + shifting hot-spots force constant replica churn, which is
    exactly when stale maps hurt; the paper's claim is that digests keep
    routing accuracy "within the optimal range".  Accuracy here is
    1 − stale-forward fraction (a stale forward is an arrival at a server
    that no longer hosts the forwarding target — zero by construction
    under the oracle). *)

open Terradir
open Terradir_util

type mode = Oracle | Digests | No_digests

let mode_label = function Oracle -> "oracle" | Digests -> "digests" | No_digests -> "none"

type row = {
  r_fact : float;
  mode : mode;
  drop_fraction : float;
  replicas_created : int;
  replicas_evicted : int;
  accuracy : float;
  shortcut_share : float;
}

type result = { rows : row list }

let r_facts = [ 0.125; 0.25; 0.5; 2.0 ]

let modes = [ Oracle; Digests; No_digests ]

let run ?scale ?(duration = 150.0) ?(seed = 42) () =
  (* One setup per r_fact, built in the pool; one cell per (r_fact, mode)
     pair, the modes differing only in fields the calibration probe
     masks. *)
  let setups =
    Runner.map
      (fun r_fact ->
        Common.make ?scale ~seed ~config_tweak:(fun c -> { c with Config.r_fact }) Common.NS)
      r_facts
  in
  let specs =
    List.concat (List.map2 (fun r setup -> List.map (fun m -> (r, setup, m)) modes) r_facts setups)
  in
  let rows =
    Runner.map
      (fun (r_fact, (setup : Common.setup), mode) ->
        let config =
          {
            setup.config with
            Config.features = { Config.bcr with Config.digests = mode = Digests };
            oracle_maps = mode = Oracle;
          }
        in
        let setup = { setup with config } in
        let phases =
          Common.uzipf_stream setup ~paper_rate:Common.paper_lambda_fig3 ~alpha:1.50 ~duration
        in
        let m = Cluster.metrics (Runner.run_phases setup phases) in
        let forwards = max 1 m.Metrics.query_forwards in
        {
          r_fact;
          mode;
          drop_fraction = Metrics.drop_fraction m;
          replicas_created = m.Metrics.replicas_created;
          replicas_evicted = m.Metrics.replicas_evicted;
          accuracy = 1.0 -. (float_of_int m.Metrics.stale_forwards /. float_of_int forwards);
          shortcut_share = float_of_int m.Metrics.shortcut_forwards /. float_of_int forwards;
        })
      specs
  in
  { rows }

let tables r =
  let f = Printf.sprintf in
  [
    {
      Tablefmt.name = "rfact_ablation";
      header = [ "r_fact"; "maps"; "drop_fraction"; "created"; "evicted"; "accuracy"; "shortcut_share" ];
      rows =
        List.map
          (fun row ->
            [
              f "%.3f" row.r_fact;
              mode_label row.mode;
              f "%.6f" row.drop_fraction;
              string_of_int row.replicas_created;
              string_of_int row.replicas_evicted;
              f "%.6f" row.accuracy;
              f "%.6f" row.shortcut_share;
            ])
          r.rows;
    };
  ]
