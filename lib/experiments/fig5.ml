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

(* Distinct stream labels, sorted. *)
let streams_in r =
  List.sort_uniq String.compare (List.map (fun c -> c.stream) r.cells)

let lookup r ~stream ~system =
  match List.find_opt (fun c -> c.stream = stream && c.system = system) r.cells with
  | Some c -> c.drop_fraction
  | None -> Float.nan

let print r =
  print_endline "Figure 5 — fraction of dropped queries: B vs BC vs BCR";
  let header = "stream" :: List.map fst systems in
  let rows =
    List.map
      (fun stream ->
        stream
        :: List.map (fun (system, _) -> Tablefmt.float_cell (lookup r ~stream ~system)) systems)
      (streams_in r)
  in
  Tablefmt.print ~header rows
