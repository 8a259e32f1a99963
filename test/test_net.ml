(* Tests for the fault-injectable network model, and the
   deterministic-simulation discipline it enables: a whole lossy,
   partitioned cluster run must be a pure function of its seed. *)

open Terradir_util
open Terradir_namespace
open Terradir_sim
open Terradir
open Terradir_workload

let mk ?(seed = 1) ?loss ?latency () = Net.create ?loss ?latency ~rng:(Splitmix.create seed) ()

(* ------------------------------------------------------------------ *)
(* Loss                                                                *)
(* ------------------------------------------------------------------ *)

let test_ideal_by_default () =
  let net = mk () in
  for i = 0 to 99 do
    match Net.transmit net ~src:i ~dst:(i + 1) with
    | Net.Delivered d -> Alcotest.(check (float 1e-12)) "zero latency" 0.0 d
    | Net.Lost | Net.Blocked -> Alcotest.fail "ideal network must deliver"
  done;
  Alcotest.(check int) "delivered counter" 100 (Net.delivered net);
  Alcotest.(check int) "lost counter" 0 (Net.lost net);
  Alcotest.(check int) "blocked counter" 0 (Net.blocked_count net)

let test_loss_rate_tolerance () =
  let net = mk ~seed:3 ~loss:0.3 () in
  let draws = 20_000 in
  for _ = 1 to draws do
    ignore (Net.transmit net ~src:0 ~dst:1)
  done;
  let frac = float_of_int (Net.lost net) /. float_of_int draws in
  (* sd of the estimator is sqrt(0.3*0.7/20000) ~ 0.0032; +-0.02 is 6 sd *)
  Alcotest.(check bool) (Printf.sprintf "lost fraction %.4f ~ 0.3" frac) true
    (abs_float (frac -. 0.3) < 0.02);
  Alcotest.(check int) "all accounted" draws (Net.lost net + Net.delivered net)

let test_total_loss () =
  let net = mk ~loss:1.0 () in
  for _ = 1 to 50 do
    Alcotest.(check bool) "always lost" true (Net.transmit net ~src:0 ~dst:1 = Net.Lost)
  done

let test_loopback_immune () =
  let net = mk ~loss:1.0 () in
  ignore (Net.partition net ~a:[ 0 ] ~b:[ 1 ]);
  (match Net.transmit net ~src:0 ~dst:0 with
  | Net.Delivered _ -> ()
  | Net.Lost | Net.Blocked -> Alcotest.fail "loopback is never lost or blocked");
  Alcotest.(check bool) "loopback never blocked" false (Net.blocked net ~src:0 ~dst:0)

let test_set_loss () =
  let net = mk ~seed:5 () in
  Net.set_loss net 1.0;
  Alcotest.(check (float 1e-12)) "loss readable" 1.0 (Net.loss net);
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
          Alcotest.(check bool) "a->b blocked" true (Net.blocked net ~src:s ~dst:d);
          Alcotest.(check bool) "b->a blocked" true (Net.blocked net ~src:d ~dst:s))
        b)
    a;
  (* pairs inside one side, and pairs involving outsiders, are untouched *)
  Alcotest.(check bool) "within a" false (Net.blocked net ~src:0 ~dst:1);
  Alcotest.(check bool) "within b" false (Net.blocked net ~src:3 ~dst:4);
  Alcotest.(check bool) "outsider" false (Net.blocked net ~src:7 ~dst:0);
  Alcotest.(check bool) "transmit verdict" true (Net.transmit net ~src:2 ~dst:3 = Net.Blocked);
  Alcotest.(check int) "blocked counter" 1 (Net.blocked_count net)

let test_partition_directed () =
  let net = mk () in
  ignore (Net.partition ~directed:true net ~a:[ 0 ] ~b:[ 1 ]);
  Alcotest.(check bool) "a->b blocked" true (Net.blocked net ~src:0 ~dst:1);
  Alcotest.(check bool) "b->a open" false (Net.blocked net ~src:1 ~dst:0)

let test_partition_heal () =
  let net = mk () in
  let pid = Net.partition net ~a:[ 0 ] ~b:[ 1 ] in
  Alcotest.(check bool) "blocked" true (Net.blocked net ~src:0 ~dst:1);
  Net.heal net pid;
  Alcotest.(check bool) "healed" false (Net.blocked net ~src:0 ~dst:1);
  Net.heal net pid (* idempotent *);
  Net.heal net 999 (* unknown ignored *)

let test_partition_stacking () =
  let net = mk () in
  let p1 = Net.partition net ~a:[ 0; 1 ] ~b:[ 2; 3 ] in
  let p2 = Net.partition net ~a:[ 1 ] ~b:[ 2 ] in
  Alcotest.(check bool) "covered twice" true (Net.blocked net ~src:1 ~dst:2);
  Net.heal net p1;
  Alcotest.(check bool) "still covered by p2" true (Net.blocked net ~src:1 ~dst:2);
  Alcotest.(check bool) "p1-only pair freed" false (Net.blocked net ~src:0 ~dst:3);
  Net.heal net p2;
  Alcotest.(check bool) "fully healed" false (Net.blocked net ~src:1 ~dst:2);
  ignore (Net.partition net ~a:[ 5 ] ~b:[ 6 ]);
  ignore (Net.partition net ~a:[ 7 ] ~b:[ 8 ]);
  Net.heal_all net;
  Alcotest.(check bool) "heal_all" false
    (Net.blocked net ~src:5 ~dst:6 || Net.blocked net ~src:7 ~dst:8)

let test_partition_consumes_no_rng () =
  (* A blocked transmit must not advance the RNG: the surviving traffic's
     randomness is unchanged by how many messages died at the cut. *)
  let n1 = mk ~seed:21 ~loss:0.5 () and n2 = mk ~seed:21 ~loss:0.5 () in
  ignore (Net.partition n1 ~a:[ 0 ] ~b:[ 1 ]);
  for _ = 1 to 10 do
    ignore (Net.transmit n1 ~src:0 ~dst:1)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "verdict streams agree" true
      (Net.transmit n1 ~src:2 ~dst:3 = Net.transmit n2 ~src:2 ~dst:3)
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
    Alcotest.(check (float 1e-12)) "exact" 0.025 (Net.sample_latency net)
  done

let test_latency_uniform () =
  let net = mk ~seed:8 ~latency:(Net.Uniform { base = 0.1; jitter = 0.04 }) () in
  let s = Stats.create () in
  for _ = 1 to 10_000 do
    let l = Net.sample_latency net in
    Alcotest.(check bool) "in [base-j, base+j]" true (l >= 0.06 && l <= 0.14);
    Stats.add s l
  done;
  Alcotest.(check bool) "mean ~ base" true (abs_float (Stats.mean s -. 0.1) < 0.002)

let test_latency_lognormal () =
  let net = mk ~seed:13 ~latency:(Net.Lognormal { median = 0.05; sigma = 0.6 }) () in
  let n = 10_001 in
  let samples = Array.init n (fun _ -> Net.sample_latency net) in
  Alcotest.(check bool) "all positive" true (Array.for_all (fun l -> l > 0.0) samples);
  Array.sort compare samples;
  let med = samples.(n / 2) in
  Alcotest.(check bool) (Printf.sprintf "sample median %.4f ~ 0.05" med) true
    (abs_float (med -. 0.05) < 0.005)

let test_latency_validation () =
  Alcotest.check_raises "negative constant"
    (Invalid_argument "Net: constant latency must be non-negative") (fun () ->
      ignore (mk ~latency:(Net.Constant (-0.1)) ()));
  Alcotest.check_raises "jitter > base" (Invalid_argument "Net: jitter must be in [0, base]")
    (fun () -> ignore (mk ~latency:(Net.Uniform { base = 0.1; jitter = 0.2 }) ()));
  Alcotest.check_raises "non-positive median"
    (Invalid_argument "Net: lognormal median must be positive") (fun () ->
      ignore (mk ~latency:(Net.Lognormal { median = 0.0; sigma = 1.0 }) ()));
  Alcotest.check_raises "negative sigma"
    (Invalid_argument "Net: lognormal sigma must be non-negative") (fun () ->
      ignore (mk ~latency:(Net.Lognormal { median = 0.1; sigma = -1.0 }) ()));
  Alcotest.check_raises "loss range" (Invalid_argument "Net: loss must be in [0, 1]") (fun () ->
      ignore (mk ~loss:1.5 ()));
  let net = mk () in
  Alcotest.check_raises "set_latency validates"
    (Invalid_argument "Net: jitter must be in [0, base]") (fun () ->
      Net.set_latency net (Net.Uniform { base = 0.0; jitter = 0.1 }))

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
      let latency = Net.Lognormal { median = 0.025; sigma = 0.5 } in
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
              Net.blocked net ~src:s ~dst:d = (expect && s <> d))
            all)
        all)

(* ------------------------------------------------------------------ *)
(* Deterministic simulation: whole-cluster runs under faults           *)
(* ------------------------------------------------------------------ *)

(* Digest every observable of a run: full metrics snapshot, Net counters,
   and the number of engine events (a cheap trace digest — any divergence
   in event scheduling shows up here even if the counters happen to agree). *)
let faulty_run seed =
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
    }
  in
  let cluster = Cluster.create ~config ~tree () in
  let pid = ref None in
  Engine.schedule_at cluster.Cluster.engine 2.0 (fun () ->
      pid := Some (Net.partition cluster.Cluster.net ~a:[ 0; 1; 2 ] ~b:(List.init 9 (fun i -> i + 3))));
  Engine.schedule_at cluster.Cluster.engine 5.0 (fun () ->
      Option.iter (Net.heal cluster.Cluster.net) !pid);
  Scenario.run ~fetch_probability:0.3 cluster
    ~phases:(Stream.unif ~rate:120.0 ~duration:8.0)
    ~seed:(seed + 1);
  Cluster.run_until cluster (Cluster.now cluster +. 10.0);
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
  ^ Printf.sprintf ";net=%d/%d/%d;events=%d;lat=%h;hops=%h"
      (Net.delivered cluster.Cluster.net)
      (Net.lost cluster.Cluster.net)
      (Net.blocked_count cluster.Cluster.net)
      (Engine.events_executed cluster.Cluster.engine)
      (Stats.mean m.Metrics.latency) (Stats.mean m.Metrics.hops)

let prop_faulty_cluster_deterministic =
  QCheck.Test.make ~name:"cluster: lossy partitioned run is a function of the seed" ~count:4
    QCheck.(int_bound 10_000)
    (fun seed -> String.equal (faulty_run seed) (faulty_run seed))

let test_faulty_runs_diverge_across_seeds () =
  Alcotest.(check bool) "different seeds differ" true (faulty_run 1 <> faulty_run 2)

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
          Alcotest.test_case "lognormal" `Quick test_latency_lognormal;
          Alcotest.test_case "validation" `Quick test_latency_validation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeds diverge" `Slow test_faulty_runs_diverge_across_seeds;
        ] );
      ( "net-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_net_verdicts_deterministic;
            prop_partition_blocks_exactly_the_cut;
            prop_faulty_cluster_deterministic;
          ] );
    ]
