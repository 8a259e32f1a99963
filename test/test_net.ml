(* Tests for the fault-injectable network model, and the
   deterministic-simulation discipline it enables: a whole lossy,
   partitioned cluster run must be a pure function of its seed. *)

open Terradir_util
open Terradir_namespace
open Terradir_sim
open Terradir
open Terradir_workload

let mk ?(seed = 1) ?loss ?latency () =
  Net.create ?loss ?latency ~peers:128 ~rng:(Splitmix.create seed) ()

(* A partition verdict: on a lossless constant-latency network [transmit]
   draws nothing, so asking it is pure observation. *)
let blocked net ~src ~dst = Net.transmit net ~src ~dst = Net.Blocked

(* The latency of one delivered message. *)
let latency_of net ~src ~dst =
  match Net.transmit net ~src ~dst with
  | Net.Delivered d -> d
  | Net.Lost | Net.Blocked -> Alcotest.fail "lossless, unpartitioned network must deliver"

(* ------------------------------------------------------------------ *)
(* Loss                                                                *)
(* ------------------------------------------------------------------ *)

let test_ideal_by_default () =
  let net = mk () in
  for i = 0 to 99 do
    Alcotest.(check (float 1e-12)) "delivered at zero latency" 0.0
      (latency_of net ~src:i ~dst:(i + 1))
  done

let test_loss_rate_tolerance () =
  let net = mk ~seed:3 ~loss:0.3 () in
  let draws = 20_000 in
  let lost = ref 0 and delivered = ref 0 in
  for _ = 1 to draws do
    match Net.transmit net ~src:0 ~dst:1 with
    | Net.Lost -> incr lost
    | Net.Delivered _ -> incr delivered
    | Net.Blocked -> Alcotest.fail "no partition is installed"
  done;
  let frac = float_of_int !lost /. float_of_int draws in
  (* sd of the estimator is sqrt(0.3*0.7/20000) ~ 0.0032; +-0.02 is 6 sd *)
  Alcotest.(check bool) (Printf.sprintf "lost fraction %.4f ~ 0.3" frac) true
    (abs_float (frac -. 0.3) < 0.02);
  Alcotest.(check int) "all accounted" draws (!lost + !delivered)

let test_total_loss () =
  let net = mk ~loss:1.0 () in
  for _ = 1 to 50 do
    Alcotest.(check bool) "always lost" true (Net.transmit net ~src:0 ~dst:1 = Net.Lost)
  done

let test_loopback_immune () =
  let net = mk ~loss:1.0 () in
  ignore (Net.partition net ~a:[ 0 ] ~b:[ 1 ]);
  match Net.transmit net ~src:0 ~dst:0 with
  | Net.Delivered _ -> ()
  | Net.Lost | Net.Blocked -> Alcotest.fail "loopback is never lost or blocked"

let test_set_loss () =
  let net = mk ~seed:5 () in
  Net.set_loss net 1.0;
  Alcotest.(check bool) "now lossy" true (Net.transmit net ~src:0 ~dst:1 = Net.Lost);
  Net.set_loss net 0.0;
  Alcotest.(check bool) "lossless again" true
    (match Net.transmit net ~src:0 ~dst:1 with Net.Delivered _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Partitions                                                          *)
(* ------------------------------------------------------------------ *)

let test_partition_symmetric () =
  let net = mk () in
  let a = [ 0; 1; 2 ] and b = [ 3; 4 ] in
  ignore (Net.partition net ~a ~b);
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          Alcotest.(check bool) "a->b blocked" true (blocked net ~src:s ~dst:d);
          Alcotest.(check bool) "b->a blocked" true (blocked net ~src:d ~dst:s))
        b)
    a;
  (* pairs inside one side, and pairs involving outsiders, are untouched *)
  Alcotest.(check bool) "within a" false (blocked net ~src:0 ~dst:1);
  Alcotest.(check bool) "within b" false (blocked net ~src:3 ~dst:4);
  Alcotest.(check bool) "outsider" false (blocked net ~src:7 ~dst:0);
  Alcotest.(check bool) "loopback inside a side" false (blocked net ~src:2 ~dst:2)

let test_partition_directed () =
  let net = mk () in
  ignore (Net.partition ~directed:true net ~a:[ 0 ] ~b:[ 1 ]);
  Alcotest.(check bool) "a->b blocked" true (blocked net ~src:0 ~dst:1);
  Alcotest.(check bool) "b->a open" false (blocked net ~src:1 ~dst:0)

let test_partition_heal () =
  let net = mk () in
  let pid = Net.partition net ~a:[ 0 ] ~b:[ 1 ] in
  Alcotest.(check bool) "blocked" true (blocked net ~src:0 ~dst:1);
  Net.heal net pid;
  Alcotest.(check bool) "healed" false (blocked net ~src:0 ~dst:1);
  Net.heal net pid (* idempotent *);
  Net.heal net 999 (* unknown ignored *)

let test_partition_stacking () =
  let net = mk () in
  let p1 = Net.partition net ~a:[ 0; 1 ] ~b:[ 2; 3 ] in
  let p2 = Net.partition net ~a:[ 1 ] ~b:[ 2 ] in
  Alcotest.(check bool) "covered twice" true (blocked net ~src:1 ~dst:2);
  Net.heal net p1;
  Alcotest.(check bool) "still covered by p2" true (blocked net ~src:1 ~dst:2);
  Alcotest.(check bool) "p1-only pair freed" false (blocked net ~src:0 ~dst:3);
  Net.heal net p2;
  Alcotest.(check bool) "fully healed" false (blocked net ~src:1 ~dst:2);
  ignore (Net.partition net ~a:[ 5 ] ~b:[ 6 ]);
  ignore (Net.partition net ~a:[ 7 ] ~b:[ 8 ]);
  Net.heal_all net;
  Alcotest.(check bool) "heal_all" false
    (blocked net ~src:5 ~dst:6 || blocked net ~src:7 ~dst:8)

let test_partition_consumes_no_rng () =
  (* A blocked transmit must not advance the sender's stream: the
     sender's surviving traffic draws exactly what it would have drawn had
     no message died at the cut.  Blocked and surviving messages share one
     sender, since each sender draws from a stream of its own. *)
  let latency = Net.Uniform { base = 0.025; jitter = 0.01 } in
  let n1 = mk ~seed:21 ~loss:0.5 ~latency () and n2 = mk ~seed:21 ~loss:0.5 ~latency () in
  ignore (Net.partition n1 ~a:[ 0 ] ~b:[ 1 ]);
  for _ = 1 to 10 do
    Alcotest.(check bool) "cut" true (Net.transmit n1 ~src:0 ~dst:1 = Net.Blocked)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "verdict streams agree" true
      (Net.transmit n1 ~src:0 ~dst:2 = Net.transmit n2 ~src:0 ~dst:2)
  done

let test_partition_validation () =
  let net = mk () in
  Alcotest.check_raises "empty side" (Invalid_argument "Net.partition: empty side") (fun () ->
      ignore (Net.partition net ~a:[] ~b:[ 1 ]));
  Alcotest.check_raises "intersecting" (Invalid_argument "Net.partition: sides intersect")
    (fun () -> ignore (Net.partition net ~a:[ 0; 1 ] ~b:[ 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* Latency distributions                                               *)
(* ------------------------------------------------------------------ *)

let test_latency_constant () =
  let net = mk ~latency:(Net.Constant 0.025) () in
  for _ = 1 to 20 do
    Alcotest.(check (float 1e-12)) "exact" 0.025 (latency_of net ~src:0 ~dst:1)
  done

let test_latency_uniform () =
  let net = mk ~seed:8 ~latency:(Net.Uniform { base = 0.1; jitter = 0.04 }) () in
  let s = Stats.create () in
  for _ = 1 to 10_000 do
    let l = latency_of net ~src:0 ~dst:1 in
    Alcotest.(check bool) "in [base-j, base+j]" true (l >= 0.06 && l <= 0.14);
    Stats.add s l
  done;
  Alcotest.(check bool) "mean ~ base" true (abs_float (Stats.mean s -. 0.1) < 0.002)

let test_latency_validation () =
  Alcotest.check_raises "negative constant"
    (Invalid_argument "Net: constant latency must be non-negative") (fun () ->
      ignore (mk ~latency:(Net.Constant (-0.1)) ()));
  Alcotest.check_raises "jitter > base" (Invalid_argument "Net: jitter must be in [0, base]")
    (fun () -> ignore (mk ~latency:(Net.Uniform { base = 0.1; jitter = 0.2 }) ()));
  Alcotest.check_raises "loss range" (Invalid_argument "Net: loss must be in [0, 1]") (fun () ->
      ignore (mk ~loss:1.5 ()));
  Alcotest.check_raises "peers" (Invalid_argument "Net.create: peers must be >= 1") (fun () ->
      ignore (Net.create ~peers:0 ~rng:(Splitmix.create 1) ()));
  let net = mk () in
  Alcotest.check_raises "set_latency validates"
    (Invalid_argument "Net: jitter must be in [0, base]") (fun () ->
      Net.set_latency net (Net.Uniform { base = 0.0; jitter = 0.1 }))

(* The floor a network is created with is the engine's lookahead, so no
   later model may go below it, at any engine shard count: the same call
   fails on a one-domain and a two-domain cluster, while the range the
   chaos driver's [Set_jitter] may install goes through on both. *)
let test_latency_floor () =
  let below = Invalid_argument "Net.set_latency: latency floor below the one fixed at creation" in
  let net = mk ~latency:(Net.Uniform { base = 0.1; jitter = 0.04 }) () in
  Alcotest.check_raises "bare net" below (fun () -> Net.set_latency net (Net.Constant 0.05));
  Alcotest.(check (float 1e-12)) "model kept" 0.06 (Net.min_latency net);
  List.iter
    (fun domains ->
      let base = Config.default.Config.network_delay and jitter = 0.01 in
      let config =
        { Config.default with Config.num_servers = 12; net_jitter = jitter; engine_domains = domains }
      in
      let cluster = Cluster.create ~config ~tree:(Build.balanced ~arity:2 ~levels:5) () in
      Alcotest.(check int) "engine domains" domains (Engine.domains cluster.Cluster.engine);
      let net = cluster.Cluster.net in
      Alcotest.check_raises (Printf.sprintf "K=%d: wider jitter" domains) below (fun () ->
          Net.set_latency net (Net.Uniform { base; jitter = 2.0 *. jitter }));
      Alcotest.check_raises (Printf.sprintf "K=%d: lower constant" domains) below (fun () ->
          Net.set_latency net (Net.Constant (base -. (2.0 *. jitter))));
      Net.set_latency net (Net.Uniform { base; jitter });
      Net.set_latency net (Net.Uniform { base; jitter = jitter /. 2.0 });
      Net.set_latency net (Net.Constant base))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Determinism properties                                              *)
(* ------------------------------------------------------------------ *)

let prop_net_verdicts_deterministic =
  QCheck.Test.make ~name:"net: same seed yields the same verdict stream" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let stream net =
        List.init 300 (fun i -> Net.transmit net ~src:(i mod 7) ~dst:((i * 3) mod 11))
      in
      let latency = Net.Uniform { base = 0.025; jitter = 0.01 } in
      stream (mk ~seed ~loss:0.2 ~latency ()) = stream (mk ~seed ~loss:0.2 ~latency ()))

let prop_partition_blocks_exactly_the_cut =
  QCheck.Test.make ~name:"net: a partition blocks exactly the cross pairs" ~count:100
    QCheck.(triple (int_bound 4) (int_bound 4) bool)
    (fun (na, nb, directed) ->
      let a = List.init (na + 1) Fun.id in
      let b = List.init (nb + 1) (fun i -> i + na + 1) in
      let net = mk () in
      ignore (Net.partition ~directed net ~a ~b);
      let all = List.init (na + nb + 4) Fun.id in
      List.for_all
        (fun s ->
          List.for_all
            (fun d ->
              let cross_ab = List.mem s a && List.mem d b in
              let cross_ba = List.mem s b && List.mem d a in
              let expect = cross_ab || ((not directed) && cross_ba) in
              blocked net ~src:s ~dst:d = (expect && s <> d))
            all)
        all)

(* ------------------------------------------------------------------ *)
(* Deterministic simulation: whole-cluster runs under faults           *)
(* ------------------------------------------------------------------ *)

(* Digest every observable of a run: full metrics snapshot, network
   fault counts, and the number of engine events (a cheap trace digest — any divergence
   in event scheduling shows up here even if the counters happen to agree). *)
(* A 12-server cluster under 5 % loss and jitter, with retransmission
   on, partitioned 3 | 9 from t = 2 s to t = 5 s, then drained. *)
let faulty_cluster ?obs ?(engine_domains = 1) seed =
  let tree = Build.balanced ~arity:2 ~levels:5 in
  let config =
    {
      Config.default with
      Config.num_servers = 12;
      seed;
      net_loss = 0.05;
      net_jitter = 0.01;
      rpc_timeout = 0.5;
      max_retries = 2;
      retry_backoff = 2.0;
      engine_domains;
    }
  in
  let cluster = Cluster.create ?obs ~config ~tree () in
  let pid = ref None in
  Engine.schedule_at cluster.Cluster.engine 2.0 (fun () ->
      pid := Some (Net.partition cluster.Cluster.net ~a:[ 0; 1; 2 ] ~b:(List.init 9 (fun i -> i + 3))));
  Engine.schedule_at cluster.Cluster.engine 5.0 (fun () ->
      Option.iter (Net.heal cluster.Cluster.net) !pid);
  Scenario.run ~fetch_probability:0.3 cluster
    ~phases:(Stream.unif ~rate:120.0 ~duration:8.0)
    ~seed:(seed + 1);
  Cluster.run_until cluster (Cluster.now cluster +. 10.0);
  cluster

let faulty_run seed =
  let cluster = faulty_cluster seed in
  Cluster.check_invariants cluster;
  let m = Cluster.metrics cluster in
  (* Termination under loss plus a partition: after the drain every
     lookup and every fetch has been finalized exactly once. *)
  Alcotest.(check int) "no request left pending" 0
    (Array.fold_left (fun a h -> a + Hashtbl.length h) 0 cluster.Cluster.pending);
  Alcotest.(check int) "every lookup terminated" 0 (Metrics.unresolved m);
  Alcotest.(check int) "every fetch terminated" m.Metrics.data_requests
    (m.Metrics.data_completed + m.Metrics.data_dropped);
  let rows = Metrics.summary_rows m |> List.map (fun (k, v) -> k ^ "=" ^ v) in
  String.concat ";" rows
  ^ Printf.sprintf ";net=%d/%d;events=%d;lat=%h;hops=%h" m.Metrics.net_lost m.Metrics.net_blocked
      (Engine.events_executed cluster.Cluster.engine)
      (Stats.mean m.Metrics.latency) (Stats.mean m.Metrics.hops)

let prop_faulty_cluster_deterministic =
  QCheck.Test.make ~name:"cluster: lossy partitioned run is a function of the seed" ~count:4
    QCheck.(int_bound 10_000)
    (fun seed -> String.equal (faulty_run seed) (faulty_run seed))

let test_faulty_runs_diverge_across_seeds () =
  Alcotest.(check bool) "different seeds differ" true (faulty_run 1 <> faulty_run 2)

(* The flight recorder and the metrics see the same network faults: at
   obs level [Counters], with a ring that keeps every event, each lost or
   blocked message is one [Net_lost] / [Net_blocked] record attributed to
   its sender, at one engine domain and at two. *)
let test_recorded_faults_match_metrics () =
  let module Obs = Terradir_obs.Obs in
  let module Recorder = Terradir_obs.Recorder in
  let module Event = Terradir_obs.Event in
  List.iter
    (fun domains ->
      let obs = Obs.create ~capacity:(1 lsl 16) ~level:Obs.Counters () in
      let cluster = faulty_cluster ~obs ~engine_domains:domains 7 in
      Alcotest.(check int) "engine domains" domains (Engine.domains cluster.Cluster.engine);
      let r = Obs.recorder obs in
      Alcotest.(check int) "the ring kept every event" (Recorder.total r) (Recorder.retained r);
      let lost = ref 0 and blocked = ref 0 in
      Recorder.iter r (fun e ->
          match e.Recorder.event with
          | Event.Net_lost { src; _ } ->
            incr lost;
            Alcotest.(check int) "lost: recorded for its sender" src e.Recorder.server
          | Event.Net_blocked { src; _ } ->
            incr blocked;
            Alcotest.(check int) "blocked: recorded for its sender" src e.Recorder.server
          | _ -> ());
      let m = Cluster.metrics cluster in
      Alcotest.(check bool) "both faults fired" true (!lost > 0 && !blocked > 0);
      Alcotest.(check int) (Printf.sprintf "K=%d: Net_lost = net_lost" domains) m.Metrics.net_lost
        !lost;
      Alcotest.(check int)
        (Printf.sprintf "K=%d: Net_blocked = net_blocked" domains)
        m.Metrics.net_blocked !blocked)
    [ 1; 2 ]

let () =
  Alcotest.run "terradir_net"
    [
      ( "loss",
        [
          Alcotest.test_case "ideal by default" `Quick test_ideal_by_default;
          Alcotest.test_case "loss rate tolerance" `Quick test_loss_rate_tolerance;
          Alcotest.test_case "total loss" `Quick test_total_loss;
          Alcotest.test_case "loopback immune" `Quick test_loopback_immune;
          Alcotest.test_case "set_loss" `Quick test_set_loss;
        ] );
      ( "partition",
        [
          Alcotest.test_case "symmetric" `Quick test_partition_symmetric;
          Alcotest.test_case "directed" `Quick test_partition_directed;
          Alcotest.test_case "heal" `Quick test_partition_heal;
          Alcotest.test_case "stacking" `Quick test_partition_stacking;
          Alcotest.test_case "no rng on block" `Quick test_partition_consumes_no_rng;
          Alcotest.test_case "validation" `Quick test_partition_validation;
        ] );
      ( "latency",
        [
          Alcotest.test_case "constant" `Quick test_latency_constant;
          Alcotest.test_case "uniform" `Quick test_latency_uniform;
          Alcotest.test_case "validation" `Quick test_latency_validation;
          Alcotest.test_case "floor" `Quick test_latency_floor;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeds diverge" `Slow test_faulty_runs_diverge_across_seeds;
          Alcotest.test_case "recorded faults match metrics" `Quick
            test_recorded_faults_match_metrics;
        ] );
      ( "net-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_net_verdicts_deterministic;
            prop_partition_blocks_exactly_the_cut;
            prop_faulty_cluster_deterministic;
          ] );
    ]
