open Terradir
open Terradir_util

type row = { dimension : string; variant : string; metrics : (string * float) list }

type result = { rows : row list }

let zipf_phases setup ~duration =
  Common.uzipf_stream setup ~paper_rate:Common.paper_lambda_fig3 ~alpha:1.25 ~duration

(* §2.4's cache claims are made "even in the absence of locality": under
   Zipf demand a handful of endpoint entries covers the hot head, but
   under uniform demand endpoint reuse is nil while path entries
   (ancestors at every level) keep earning shortcuts. *)
let unif_phases setup ~duration =
  Common.unif_stream setup ~paper_rate:Common.paper_lambda_fig3 ~duration

let measure cluster =
  let m = Cluster.metrics cluster in
  [
    ("drop_fraction", Metrics.drop_fraction m);
    ("mean_hops", Stats.mean m.Metrics.hops);
    ("mean_latency_ms", 1000.0 *. Stats.mean m.Metrics.latency);
    ("replicas", float_of_int m.Metrics.replicas_created);
  ]

(* One ablation cell: a variant of the full system, the stream it runs and
   the [prep] applied to its fresh cluster before the stream. *)
type cell = {
  dimension : string;
  variant : string;
  features : Config.features;
  stream : [ `Zipf | `Unif ];
  prep : (Cluster.t -> unit) option;
  tweak : Config.t -> Config.t;
}

let cell ?(features = Config.bcr) ?(stream = `Zipf) ?prep ~dimension ~variant tweak =
  { dimension; variant; features; stream; prep; tweak }

let config_of c base = c.tweak { base with Config.features = c.features }

(* Runs on a setup whose config the calibration probe cannot tell from the
   cell's own (see [run]), through [Runner.run_phases]. *)
let run_cell ~seed ~duration (setup : Common.setup) c =
  let setup = { setup with Common.config = config_of c setup.Common.config } in
  let phases =
    match c.stream with
    | `Zipf -> zipf_phases setup ~duration
    | `Unif -> unif_phases setup ~duration
  in
  let cluster = Runner.run_phases ~workload_seed:(seed + 7) ?prep:c.prep setup phases in
  { dimension = c.dimension; variant = c.variant; metrics = measure cluster }

(* Digest shortcuts discover routes independently of the cache, masking
   cache-policy and cache-size differences; those two dimensions therefore
   run with digests off so the cache is the only shortcut mechanism. *)
let no_digests = { Config.bcr with Config.digests = false }

let static_prep cluster = ignore (Static_replication.apply cluster ~levels:4 ~copies:3 : int)

let cells =
  let cache_policy =
    [
      cell ~features:no_digests ~stream:`Unif ~dimension:"cache-policy" ~variant:"path-propagation"
        (fun c -> { c with Config.cache_policy = Config.Path_propagation });
      cell ~features:no_digests ~stream:`Unif ~dimension:"cache-policy" ~variant:"endpoints-only"
        (fun c -> { c with Config.cache_policy = Config.Endpoints_only });
    ]
  in
  let cache_size =
    List.map
      (fun slots ->
        cell ~features:no_digests ~stream:`Unif ~dimension:"cache-size"
          ~variant:(string_of_int slots) (fun c -> { c with Config.cache_slots = slots }))
      [ 0; 6; 12; 24; 48 ]
  in
  let map_size =
    List.map
      (fun r_map ->
        cell ~dimension:"r-map" ~variant:(string_of_int r_map) (fun c -> { c with Config.r_map }))
      [ 1; 2; 4; 8 ]
  in
  let static =
    [
      cell ~dimension:"replication" ~variant:"adaptive" Fun.id;
      cell ~prep:static_prep ~dimension:"replication" ~variant:"static-top-levels" (fun c ->
          {
            c with
            Config.features = Config.bc (* no adaptive replication *);
            replica_idle_timeout = 1.0e6 (* static copies must persist *);
          });
      cell ~prep:static_prep ~dimension:"replication" ~variant:"static+adaptive" Fun.id;
      cell ~dimension:"replication" ~variant:"none" (fun c -> { c with Config.features = Config.bc });
    ]
  in
  cache_policy @ cache_size @ map_size @ static

let run ?scale ?(duration = 120.0) ?(seed = 42) () =
  (* Cells are grouped by what the calibration probe sees of their config
     (every tweak sets its fields to constants, so grouping over the
     default config groups over the scaled one too): one setup per group,
     built in the pool, then every cell dispatched through the pool. *)
  let view c = Common.probe_view (config_of c Config.default) in
  let groups =
    List.fold_left
      (fun acc c -> if List.mem_assoc (view c) acc then acc else acc @ [ (view c, c) ])
      [] cells
  in
  let setups =
    Runner.map
      (fun (_, c) -> Common.make ?scale ~seed ~config_tweak:(config_of c) Common.NS)
      groups
  in
  let setup_of = List.combine (List.map fst groups) setups in
  { rows = Runner.map (fun c -> run_cell ~seed ~duration (List.assoc (view c) setup_of) c) cells }

let tables r =
  let keys = [ "drop_fraction"; "mean_hops"; "mean_latency_ms"; "replicas" ] in
  [
    {
      Tablefmt.name = "ablations";
      header = [ "dimension"; "variant" ] @ keys;
      rows =
        List.map
          (fun (row : row) ->
            row.dimension :: row.variant
            :: List.map
                 (fun k ->
                   match List.assoc_opt k row.metrics with
                   | Some v -> Printf.sprintf "%.6f" v
                   | None -> "")
                 keys)
          r.rows;
    };
  ]
