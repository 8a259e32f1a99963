(** Ablations of the design choices the paper asserts but does not plot.

    - {b Cache policy} (§2.4): "This mixture of close and far nodes
      [path propagation] performs significantly better than caching the
      query endpoints."
    - {b Cache size}: caches add O(log-ish) state per server and claim
      large latency wins even without locality.
    - {b Map size} (§3.7): maps are bounded at r_map entries "for
      scalability reasons" — how much accuracy does a tiny map cost?
    - {b Static vs. adaptive replication} (§2.3): "hierarchical bottlenecks
      can be addressed by static replication mechanisms, [but hot-spots
      and failures] call for an adaptive scheme." *)

open Terradir
open Terradir_util
open Terradir_workload

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

let run_one ?scale ?(features = Config.bcr) ?(stream = `Zipf) ~seed ~duration ~dimension
    ~variant tweak prep =
  Runner.record_alloc @@ fun () ->
  let setup = Common.make ?scale ~features ~seed ~config_tweak:tweak Common.NS in
  let cluster = Common.cluster setup in
  prep cluster;
  let phases =
    match stream with
    | `Zipf -> zipf_phases setup ~duration
    | `Unif -> unif_phases setup ~duration
  in
  Scenario.run cluster ~phases ~seed:(seed + 7);
  Runner.record_events cluster;
  { dimension; variant; metrics = measure cluster }

let no_prep (_ : Cluster.t) = ()

(* Digest shortcuts discover routes independently of the cache, masking
   cache-policy and cache-size differences; those two dimensions therefore
   run with digests off so the cache is the only shortcut mechanism. *)
let no_digests = { Config.bcr with Config.digests = false }

let run ?scale ?(duration = 120.0) ?(seed = 42) () =
  (* Each ablation cell is captured as a thunk (nothing shared across
     cells) and the whole battery is dispatched through the pool. *)
  let one = run_one ?scale ~seed ~duration in
  let cache_policy =
    [
      (fun () ->
        one ~features:no_digests ~stream:`Unif ~dimension:"cache-policy"
          ~variant:"path-propagation"
          (fun c -> { c with Config.cache_policy = Config.Path_propagation })
          no_prep);
      (fun () ->
        one ~features:no_digests ~stream:`Unif ~dimension:"cache-policy"
          ~variant:"endpoints-only"
          (fun c -> { c with Config.cache_policy = Config.Endpoints_only })
          no_prep);
    ]
  in
  let cache_size =
    List.map
      (fun slots () ->
        one ~features:no_digests ~stream:`Unif ~dimension:"cache-size"
          ~variant:(string_of_int slots)
          (fun c -> { c with Config.cache_slots = slots })
          no_prep)
      [ 0; 6; 12; 24; 48 ]
  in
  let map_size =
    List.map
      (fun r_map () ->
        one ~dimension:"r-map" ~variant:(string_of_int r_map)
          (fun c -> { c with Config.r_map = r_map })
          no_prep)
      [ 1; 2; 4; 8 ]
  in
  let static_levels = 4 and static_copies = 3 in
  let static =
    [
      (fun () -> one ~dimension:"replication" ~variant:"adaptive" Fun.id no_prep);
      (fun () ->
        one ~dimension:"replication" ~variant:"static-top-levels"
          (fun c ->
            {
              c with
              Config.features = Config.bc (* no adaptive replication *);
              replica_idle_timeout = 1.0e6 (* static copies must persist *);
            })
          (fun cluster ->
            ignore
              (Static_replication.apply cluster ~levels:static_levels ~copies:static_copies)));
      (fun () ->
        one ~dimension:"replication" ~variant:"static+adaptive"
          (fun c -> c)
          (fun cluster ->
            ignore
              (Static_replication.apply cluster ~levels:static_levels ~copies:static_copies)));
      (fun () ->
        one ~dimension:"replication" ~variant:"none"
          (fun c -> { c with Config.features = Config.bc })
          no_prep);
    ]
  in
  let cells = cache_policy @ cache_size @ map_size @ static in
  { rows = Runner.map (fun cell -> cell ()) cells }

let tables r =
  let keys = [ "drop_fraction"; "mean_hops"; "mean_latency_ms"; "replicas" ] in
  [
    {
      Tablefmt.name = "ablations";
      header = [ "dimension"; "variant" ] @ keys;
      rows =
        List.map
          (fun row ->
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
