(** Figure 5: overall dropped-query fraction for the base system (B),
    caching only (BC), and caching + replication (BCR), across the ten
    standard streams (unif/uzipf × N_S/N_C).

    The paper's qualitative result: B is barely usable under load; BC can
    even {e aggravate} N_S (cache pointers concentrate traffic upstream
    without shedding it); BCR keeps drops low everywhere. *)

open Terradir
open Terradir_util

type cell = { stream : string; system : string; drop_fraction : float }

type result = { cells : cell list }

let systems = [ ("B", Config.base); ("BC", Config.bc); ("BCR", Config.bcr) ]

let stream_specs =
  (* (suffix, namespace, paper rate) *)
  [ ("S", Common.NS, Common.paper_lambda_fig3); ("C", Common.NC, Common.paper_lambda_fig4) ]

let run ?scale ?(duration = 120.0) ?(seed = 42) () =
  (* Enumerate all 30 (namespace x stream x system) cells up front, then
     run each as a self-contained pool cell. *)
  let specs =
    List.concat_map
      (fun (suffix, ns, paper_rate) ->
        let base_setup = Common.make ?scale ~seed ns in
        let streams = Runner.named_streams base_setup ~paper_rate ~duration in
        List.concat_map
          (fun (stream_label, phases) ->
            List.map
              (fun (system, features) -> (ns, stream_label ^ suffix, phases, system, features))
              systems)
          streams)
      stream_specs
  in
  let cells =
    Runner.map
      (fun (ns, stream, phases, system, features) ->
        let setup = Common.make ?scale ~features ~seed ns in
        let cluster = Runner.run_phases setup phases in
        { stream; system; drop_fraction = Metrics.drop_fraction (Cluster.metrics cluster) })
      specs
  in
  { cells }

let tables r =
  [
    {
      Tablefmt.name = "fig5_drops";
      header = [ "stream"; "system"; "drop_fraction" ];
      rows =
        List.map (fun c -> [ c.stream; c.system; Printf.sprintf "%.6f" c.drop_fraction ]) r.cells;
    };
  ]
