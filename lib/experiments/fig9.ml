(** Figure 9: scalability.  System size doubles step by step; nodes per
    server stay constant (~8, balanced binary namespace), λ grows
    proportionally, cache slots grow logarithmically (2·log2 S − 2) and
    r_map grows logarithmically.

    Reported per size: average query latency (hops and seconds — the paper
    plots a logarithmically growing latency), log10 of replication events,
    and log10 of dropped queries (both roughly linear in system size,
    hence straight lines on the log scale). *)

open Terradir
open Terradir_util

type row = {
  servers : int;
  nodes : int;
  mean_hops : float;
  mean_latency : float;
  replications : int;
  drops : int;
  resolved : int;
}

type result = { rows : row list }

(* Scaled counterpart of the paper's 2^9..2^14 sweep: six doublings,
   starting from 512·scale servers (so scale=1 reproduces 2^9..2^14). *)
let sizes ?(scale = 1.0 /. 16.0) () =
  let smallest = max 8 (int_of_float (512.0 *. scale)) in
  List.init 6 (fun i -> smallest * (1 lsl i))

let run ?scale ?(duration = 90.0) ?(seed = 42) () =
  (* One pool cell per system size. *)
  let rows =
    Runner.map
      (fun servers ->
        let scale_for = float_of_int servers /. float_of_int Common.paper_servers in
        let setup = Common.make ~scale:scale_for ~seed ~config_tweak:Common.fig9_sizing Common.NS in
        let paper_rate = 5.0 *. float_of_int Common.paper_servers (* λ ∝ S *) in
        let phases = Common.uzipf_stream setup ~paper_rate ~alpha:1.00 ~duration in
        let cluster = Runner.run_phases setup phases in
        let m = Cluster.metrics cluster in
        {
          servers;
          nodes = Terradir_namespace.Tree.size setup.Common.tree;
          mean_hops = Stats.mean m.Metrics.hops;
          mean_latency = Stats.mean m.Metrics.latency;
          replications = m.Metrics.replicas_created;
          drops = Metrics.dropped_total m;
          resolved = m.Metrics.resolved;
        })
      (sizes ?scale ())
  in
  { rows }

let tables r =
  let f = Printf.sprintf in
  let log10 n = f "%.6f" (Common.log10_or_zero (float_of_int n)) in
  [
    {
      Tablefmt.name = "fig9_scalability";
      header =
        [
          "servers"; "nodes"; "mean_hops"; "latency_s"; "replications"; "drops"; "resolved";
          "log10_replications"; "log10_drops";
        ];
      rows =
        List.map
          (fun row ->
            [
              string_of_int row.servers;
              string_of_int row.nodes;
              f "%.4f" row.mean_hops;
              f "%.6f" row.mean_latency;
              string_of_int row.replications;
              string_of_int row.drops;
              string_of_int row.resolved;
              log10 row.replications;
              log10 row.drops;
            ])
          r.rows;
    };
  ]
