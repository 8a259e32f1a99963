(* One episode: a workload's whole trajectory, run in the calling
   process.  Set-up and run are timed around public library calls; every
   other number is read from counters the library already exposes, after
   the run and outside the timed span.  The driver runs each episode in a
   fresh process, so peak RSS, the process-wide name-interning table and
   the GC state belong to that episode alone. *)

open Terradir
open Terradir_namespace
open Terradir_workload
open Terradir_chaos
module Engine = Terradir_sim.Engine
module Hist = Terradir_obs.Hist
module Stats = Terradir_util.Stats

type mode =
  | Setup  (** set-up only: the timed part of {!prepare}, then exit *)
  | Run  (** set-up and the whole trajectory *)
  | Trace  (** [Run] with the trajectory observer and the replay probes *)

let string_of_mode = function Setup -> "setup" | Run -> "run" | Trace -> "trace"

let mode_of_string = function
  | "setup" -> Some Setup
  | "run" -> Some Run
  | "trace" -> Some Trace
  | _ -> None

type result = {
  values : (string * float) list;  (** metric name → value, in report order *)
  samples : (string * int) list;  (** sample count behind a percentile or probe *)
  checks : string list;  (** correctness checks that ran and passed *)
  fingerprint : string;  (** digest of the simulated outcome; "-" after [Setup] *)
  trajectory : Probes.sample list;  (** [Trace] only *)
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The simulated outcome: every counter of [Metrics.csv_row] and the
   latency and hop histograms, floats in exact hex.  Equal fingerprints
   mean equal trajectories as far as the paper's metrics can tell. *)
let fingerprint (m : Metrics.t) =
  let hist h =
    String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) (Hist.summary_fields h))
  in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            String.concat "," (Metrics.csv_row m);
            hist m.Metrics.latency_hist;
            hist m.Metrics.hops_hist;
          ]))

let require check ok detail =
  if not ok then failwith (Printf.sprintf "check %s failed: %s" check detail)

(* Every lookup and fetch has an outcome by the end of the drain: the
   counters balance with nothing left in flight. *)
let check_conservation (m : Metrics.t) report =
  let dropped = Metrics.dropped_total m in
  require "conservation"
    (m.Metrics.injected = m.Metrics.resolved + dropped && Metrics.unresolved m = 0)
    (Printf.sprintf "injected %d, resolved %d, dropped %d, unresolved %d" m.Metrics.injected
       m.Metrics.resolved dropped (Metrics.unresolved m));
  require "conservation"
    (m.Metrics.data_requests = m.Metrics.data_completed + m.Metrics.data_dropped)
    (Printf.sprintf "fetches %d, completed %d, dropped %d" m.Metrics.data_requests
       m.Metrics.data_completed m.Metrics.data_dropped);
  match report with
  | None -> ()
  | Some (r : Report.t) ->
    let t = r.Report.totals in
    require "conservation"
      (t.Report.injected = m.Metrics.injected
      && t.Report.resolved_total = m.Metrics.resolved
      && t.Report.dropped_total = dropped)
      "chaos report totals disagree with the cluster metrics"

type prepared = {
  cluster : Cluster.t;
  tree_build_s : float;
  cluster_create_s : float;
  scenario_start_s : float;
  trajectory_run : unit -> Report.t option;
}

(* Set-up: namespace, cluster and stream, each timed.  The churn
   workload's stream is started inside [Chaos.run], so its set-up is the
   namespace and the cluster alone. *)
let prepare (w : Workload.t) ~size ~seed =
  let servers = Workload.servers w size in
  let t0 = Clock.wall () in
  let tree = Build.balanced ~arity:2 ~levels:(Workload.levels ~servers) in
  let tree_build_s = Clock.wall () -. t0 in
  let rate = Workload.analytic_rate ~servers tree in
  let config = Workload.config w ~servers in
  let churn () =
    Campaigns.churn_ramp.Campaigns.spec ~servers ~rate ~seed:Workload.deployment_seed
  in
  let config =
    match w.Workload.kind with
    | Workload.Churn -> (churn ()).Campaigns.config_tweak config
    | Workload.Uniform | Workload.Hotspot -> config
  in
  let t1 = Clock.wall () in
  let cluster = Cluster.create ~config ~tree () in
  let cluster_create_s = Clock.wall () -. t1 in
  let start phases =
    let t = Clock.wall () in
    let d = Scenario.start cluster ~phases ~seed in
    let stop = Scenario.stream_end d +. Workload.drain in
    ( (fun () ->
        Cluster.run_until cluster stop;
        None),
      Clock.wall () -. t )
  in
  let trajectory_run, scenario_start_s =
    match w.Workload.kind with
    | Workload.Uniform -> start (Stream.unif ~rate ~duration:(Workload.uniform_duration size))
    | Workload.Hotspot -> start (Workload.hotspot_phases ~rate size)
    | Workload.Churn ->
      let spec = churn () in
      ( (fun () ->
          Some
            (Chaos.run ~drain:spec.Campaigns.drain ~window:spec.Campaigns.window
               ~slo:spec.Campaigns.slo ~scenario:w.Workload.name ~seed:Workload.deployment_seed
               ~fetch_probability:Workload.fetch_probability cluster
               ~workload:spec.Campaigns.workload ~workload_seed:seed
               ~timeline:spec.Campaigns.timeline ())),
        0.0 )
  in
  { cluster; tree_build_s; cluster_create_s; scenario_start_s; trajectory_run }

let setup_values p =
  [
    ("setup_s", p.tree_build_s +. p.cluster_create_s +. p.scenario_start_s);
    ("setup.tree_build_s", p.tree_build_s);
    ("setup.cluster_create_s", p.cluster_create_s);
  ]

(* Replay probes against the final warmed state, after the trajectory. *)
let probe cluster ~seed recorder =
  let trajectory = Probes.samples recorder in
  let pending = List.map (fun s -> float_of_int s.Probes.pending) trajectory in
  let chunks = Probes.chunk_us trajectory in
  let depth = int_of_float (Quantile.nearest_rank pending 0.5) in
  let hold_ns, hold_n = Probes.engine_hold_ns ~depth ~seed in
  let decide_ns, decide_n = Probes.routing_decide_ns cluster ~seed in
  let merge_ns, merge_n = Probes.node_map_merge_ns cluster ~seed in
  let values =
    [
      ("engine.pending_p50", float_of_int depth);
      ("engine.pending_max", List.fold_left Float.max 0.0 pending);
      ("engine.hold_ns", hold_ns);
      ("engine.chunk_us_p50", Quantile.nearest_rank chunks 0.5);
      ("engine.chunk_us_p99", Quantile.nearest_rank chunks 0.99);
      ("routing.decide_ns", decide_ns);
      ("node_map.merge_ns", merge_ns);
      ("mem.bytes_per_server", Probes.bytes_per_server cluster);
    ]
  in
  let samples =
    [
      ("engine.pending_p50", List.length pending);
      ("engine.pending_max", List.length pending);
      ("engine.hold_ns", hold_n);
      ("engine.chunk_us_p50", List.length chunks);
      ("engine.chunk_us_p99", List.length chunks);
      ("routing.decide_ns", decide_n);
      ("node_map.merge_ns", merge_n);
    ]
  in
  (values, samples, trajectory)

let run (w : Workload.t) ~size ~seed ~mode =
  let p = prepare w ~size ~seed in
  match mode with
  | Setup ->
    { values = setup_values p; samples = []; checks = []; fingerprint = "-"; trajectory = [] }
  | Run | Trace ->
    let cluster = p.cluster in
    let recorder =
      match mode with Trace -> Some (Probes.attach cluster.Cluster.engine) | Setup | Run -> None
    in
    (* ---- the trajectory (timed) ---- *)
    let g0 = Gc.quick_stat () in
    let c0 = Clock.cpu () in
    let w0 = Clock.wall () in
    let report = p.trajectory_run () in
    let run_s = Clock.wall () -. w0 in
    let cpu_s = Clock.cpu () -. c0 in
    let g1 = Gc.quick_stat () in
    let peak_rss_mb = Clock.peak_rss_mb () in
    (* ---- read-out and checks (untimed) ---- *)
    let m = Cluster.metrics cluster in
    check_conservation m report;
    Cluster.check_invariants cluster;
    let events = Engine.events_executed cluster.Cluster.engine in
    let lookups = m.Metrics.injected and fetches = m.Metrics.data_requests in
    (* [Cache.use] runs only on a cached candidate the router picked, so
       the cache's own miss counter stays 0: its hits are counted against
       all forwards instead. *)
    let cache_hits =
      Array.fold_left (fun acc s -> acc + Cache.hits s.Server.cache) 0 cluster.Cluster.servers
    in
    let per_event x = if events = 0 then 0.0 else x /. float_of_int events in
    let ms x = x *. 1000.0 in
    let values =
      setup_values p
      @ [
          ("queries_per_sec", float_of_int lookups /. run_s);
          ("peak_rss_mb", peak_rss_mb);
          ( "success_fraction",
            ratio (m.Metrics.resolved + m.Metrics.data_completed) (lookups + fetches) );
          ("latency_p50_ms", ms (Quantile.of_hist m.Metrics.latency_hist 0.5));
          ("latency_p99_ms", ms (Quantile.of_hist m.Metrics.latency_hist 0.99));
          ("run_s", run_s);
          ("operations", float_of_int (lookups + fetches));
          ("engine.events", float_of_int events);
          ("engine.events_per_query", ratio events lookups);
          ("engine.events_per_sec", float_of_int events /. run_s);
          ("par.cpu_per_wall", cpu_s /. run_s);
          ("routing.forwards_per_query", ratio m.Metrics.query_forwards lookups);
          ("routing.shortcut_share", ratio m.Metrics.shortcut_forwards m.Metrics.query_forwards);
          ("routing.stale_share", ratio m.Metrics.stale_forwards m.Metrics.query_forwards);
          ("cache.hit_rate", ratio cache_hits m.Metrics.query_forwards);
          ("replication.sessions", float_of_int m.Metrics.sessions_started);
          ("replication.abort_ratio", ratio m.Metrics.sessions_aborted m.Metrics.sessions_started);
          ("replication.replicas_created", float_of_int m.Metrics.replicas_created);
          ("replication.replicas_evicted", float_of_int m.Metrics.replicas_evicted);
          ("replication.replicas_live", float_of_int (Cluster.total_replicas cluster));
          ("replication.ctrl_per_query", ratio m.Metrics.control_messages lookups);
          ("net.lost", float_of_int m.Metrics.net_lost);
          ("net.blocked", float_of_int m.Metrics.net_blocked);
          ("rpc.retransmits_per_query", ratio m.Metrics.query_retransmits lookups);
          ("rpc.late_reply_ratio", ratio m.Metrics.late_replies lookups);
          ("fetch.requests", float_of_int fetches);
          ("fetch.failed_ratio", ratio m.Metrics.data_dropped fetches);
          ("fetch.latency_mean_ms", ms (Stats.mean m.Metrics.data_latency));
          ("gc.minor_words_per_event", per_event (g1.Gc.minor_words -. g0.Gc.minor_words));
          ("gc.promoted_words_per_event", per_event (g1.Gc.promoted_words -. g0.Gc.promoted_words));
          ( "gc.major_collections",
            float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
          ( "gc.top_heap_mb",
            float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0) );
        ]
    in
    let result =
      {
        values;
        samples =
          (let n = Hist.count m.Metrics.latency_hist in
           [ ("latency_p50_ms", n); ("latency_p99_ms", n) ]);
        checks = [ "conservation"; "invariants" ];
        fingerprint = fingerprint m;
        trajectory = [];
      }
    in
    (match recorder with
    | None -> result
    | Some r ->
      let values, samples, trajectory = probe cluster ~seed r in
      {
        result with
        values = result.values @ values;
        samples = result.samples @ samples;
        trajectory;
      })

(* ---- the child-to-parent line protocol (floats in exact hex) ---- *)

let print oc r =
  List.iter (fun (k, v) -> Printf.fprintf oc "value %s %h\n" k v) r.values;
  List.iter (fun (k, n) -> Printf.fprintf oc "samples %s %d\n" k n) r.samples;
  List.iter (fun c -> Printf.fprintf oc "check %s\n" c) r.checks;
  List.iter
    (fun s ->
      Printf.fprintf oc "sample %h %h %d %d %h\n" s.Probes.wall s.Probes.sim s.Probes.pending
        s.Probes.events s.Probes.minor_words)
    r.trajectory;
  Printf.fprintf oc "fingerprint %s\n" r.fingerprint

let parse text =
  let values = ref [] and samples = ref [] and checks = ref [] and trajectory = ref [] in
  let fp = ref None in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "value"; k; v ] -> values := (k, float_of_string v) :: !values
      | [ "samples"; k; n ] -> samples := (k, int_of_string n) :: !samples
      | [ "check"; c ] -> checks := c :: !checks
      | [ "fingerprint"; f ] -> fp := Some f
      | [ "sample"; wall; sim; pending; events; minor ] ->
        trajectory :=
          {
            Probes.wall = float_of_string wall;
            sim = float_of_string sim;
            pending = int_of_string pending;
            events = int_of_string events;
            minor_words = float_of_string minor;
          }
          :: !trajectory
      | [ "" ] -> ()
      | _ -> failwith ("unexpected episode output line: " ^ line))
    (String.split_on_char '\n' text);
  match !fp with
  | None -> failwith "episode output ended without a fingerprint"
  | Some fingerprint ->
    {
      values = List.rev !values;
      samples = List.rev !samples;
      checks = List.rev !checks;
      fingerprint;
      trajectory = List.rev !trajectory;
    }

let value r name =
  match List.assoc_opt name r.values with
  | Some v -> v
  | None -> failwith ("episode reported no " ^ name)
