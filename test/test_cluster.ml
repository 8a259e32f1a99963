(* Integration tests: whole-deployment behavior of the simulated TerraDir
   system — query lifecycle, load, failures, determinism. *)

open Terradir_util
open Terradir_namespace
open Terradir_sim
open Terradir
open Terradir_workload

let mk_cluster ?(servers = 24) ?(levels = 6) ?(features = Config.bcr) ?(seed = 9) () =
  let tree = Build.balanced ~arity:2 ~levels in
  let config = { Config.default with Config.num_servers = servers; features; seed } in
  Cluster.create ~config ~tree ()

let run_uniform ?(rate = 150.0) ?(duration = 20.0) cluster =
  Scenario.run cluster ~phases:(Stream.unif ~rate ~duration) ~seed:33

let test_bootstrap_placement () =
  let cluster = mk_cluster () in
  Cluster.check_invariants cluster;
  (* every node owned exactly once, by its recorded owner *)
  let tree = cluster.Cluster.tree in
  Tree.iter tree (fun node ->
      let holders =
        Array.to_list cluster.Cluster.servers
        |> List.filter (fun s ->
               match Server.find_hosted s node with
               | Some h -> h.Server.h_kind = Server.Owned
               | None -> false)
      in
      Alcotest.(check int) "one owner" 1 (List.length holders);
      Alcotest.(check int) "recorded owner"
        cluster.Cluster.owner_of.(node)
        (List.hd holders).Server.id)

(* Bootstrap maps are shared, not copied: every server's context for a
   node is the very map that node's owner hosts.  Pins the sharing that
   keeps set-up memory per node rather than per (server, neighbor). *)
let test_bootstrap_maps_shared () =
  let cluster = mk_cluster ~servers:32 ~levels:7 () in
  let shared = ref 0 in
  Array.iter
    (fun (s : Server.t) ->
      Intmap.iter s.Server.neighbor_maps ~f:(fun node map ->
          let owner = cluster.Cluster.servers.(cluster.Cluster.owner_of.(node)) in
          match Server.find_hosted owner node with
          | Some h ->
            incr shared;
            if not (map == h.Server.h_map) then
              Alcotest.failf "server %d's context for node %d is a copy of its owner's map"
                s.Server.id node
          | None -> Alcotest.failf "node %d is not hosted by its owner" node))
    cluster.Cluster.servers;
  Alcotest.(check bool) "contexts were checked" true (!shared > 0)

let test_round_robin_placement () =
  let tree = Build.balanced ~arity:2 ~levels:6 (* 127 nodes *) in
  let config =
    { Config.default with Config.num_servers = 16; placement = Config.Round_robin; seed = 4 }
  in
  let cluster = Cluster.create ~monitor:false ~config ~tree () in
  Array.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "server %d owns 7 or 8" s.Server.id)
        true
        (s.Server.owned_count = 7 || s.Server.owned_count = 8))
    cluster.Cluster.servers

(* [Cluster.create] hosts each server's nodes in one pass per server.  The
   reference is the node-order loop it replaced: [Server.add_owned] node
   by node in id order, with each node's map taken from its owner in the
   cluster.  Every server must come out the same: hosted entries and
   neighbor contexts in the same dense order with the same maps (the
   owner singletons themselves), ref counts, owned count, local digest
   version and rng draws. *)
let node_order_bootstrap (c : Cluster.t) =
  let config = c.Cluster.config and tree = c.Cluster.tree in
  let owner_map v =
    let owner = c.Cluster.owner_of.(v) in
    match Server.find_hosted c.Cluster.servers.(owner) v with
    | Some h when Node_map.size h.Server.h_map = 1 && Node_map.owner h.Server.h_map = Some owner ->
      h.Server.h_map
    | Some _ -> Alcotest.failf "node %d: its owner's map is not the owner singleton" v
    | None -> Alcotest.failf "node %d is not hosted by its owner" v
  in
  let servers =
    Array.map
      (fun (s : Server.t) -> Server.create ~id:s.Server.id ~config ~tree ~rng:(Splitmix.create 0) ())
      c.Cluster.servers
  in
  Array.iteri (fun node owner -> Server.add_owned servers.(owner) node ~owner_map) c.Cluster.owner_of;
  servers

(* Each slot's key, value and int cell, in dense order. *)
let dense m = List.init (Intmap.length m) (fun i -> (Intmap.key_at m i, (Intmap.value_at m i, Intmap.int_at m i)))

(* A server's neighbor contexts as [Tree.neighbors] (parent, then
   children) over its hosted nodes in dense order gives them: first
   reference first, with a ref count per hosted neighbor. *)
let expected_contexts tree hosted =
  let refs = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (node, _) ->
      List.iter
        (fun nb ->
          match Hashtbl.find_opt refs nb with
          | Some r -> incr r
          | None ->
            Hashtbl.add refs nb (ref 1);
            order := nb :: !order)
        (Tree.neighbors tree node))
    hosted;
  List.rev_map (fun nb -> (nb, !(Hashtbl.find refs nb))) !order

let check_same_bootstrap label (c : Cluster.t) =
  let reference = node_order_bootstrap c in
  Array.iteri
    (fun id (s : Server.t) ->
      let r = reference.(id) in
      let fail what = Alcotest.failf "%s, server %d: %s differs from the node-order loop" label id what in
      let hosted = dense s.Server.hosted and hosted_ref = dense r.Server.hosted in
      if List.map fst hosted <> List.map fst hosted_ref then fail "hosted key order";
      (* The int cell holds the kind and the meta-data version. *)
      List.iter2
        (fun (_, (map, cell)) (_, (map_ref, cell_ref)) ->
          if not (map == map_ref && cell = cell_ref) then fail "a hosted entry")
        hosted hosted_ref;
      let contexts = dense s.Server.neighbor_maps and contexts_ref = dense r.Server.neighbor_maps in
      if List.map fst contexts <> List.map fst contexts_ref then fail "neighbor context order";
      if
        List.map (fun (nb, (_, refs)) -> (nb, refs)) contexts
        <> expected_contexts c.Cluster.tree hosted
      then
        Alcotest.failf "%s, server %d: contexts are not Tree.neighbors' over the hosted nodes" label
          id;
      List.iter2
        (fun (_, (map, refs)) (_, (map_ref, refs_ref)) ->
          if not (map == map_ref && refs = refs_ref) then fail "a neighbor context")
        contexts contexts_ref;
      if s.Server.owned_count <> r.Server.owned_count then fail "owned_count";
      if
        Digest_store.local_version s.Server.digests <> Digest_store.local_version r.Server.digests
      then fail "the local digest version";
      if Splitmix.draws s.Server.rng <> Splitmix.draws r.Server.rng then fail "rng draws")
    c.Cluster.servers

let test_grouped_bootstrap () =
  let deploy ~tree ~servers placement ~seed =
    let config = { Config.default with Config.num_servers = servers; placement; seed } in
    Cluster.create ~monitor:false ~config ~tree ()
  in
  let idle = ref 0 in
  List.iter
    (fun (name, tree, servers) ->
      List.iter
        (fun (pname, placement) ->
          List.iter
            (fun seed ->
              let c = deploy ~tree ~servers placement ~seed in
              Array.iter (fun s -> if s.Server.owned_count = 0 then incr idle) c.Cluster.servers;
              check_same_bootstrap (Printf.sprintf "%s, %s, seed %d" name pname seed) c)
            [ 1; 2 ])
        [ ("uniform", Config.Uniform); ("round robin", Config.Round_robin) ])
    [
      ("arity 1", Build.balanced ~arity:1 ~levels:9, 16);
      ("arity 2", Build.balanced ~arity:2 ~levels:8, 24);
      ("arity 3", Build.balanced ~arity:3 ~levels:5, 13);
      ("arity 4", Build.balanced ~arity:4 ~levels:4, 40);
      ("coda_like", Build.coda_like ~seed:7 ~target:600 (), 32);
    ];
  Alcotest.(check bool) "some servers own nothing" true (!idle > 0)

let test_all_resolve_at_low_load () =
  let cluster = mk_cluster () in
  run_uniform ~rate:60.0 cluster;
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) "queries ran" true (m.Metrics.injected > 500);
  Alcotest.(check int) "no drops at low load" 0 (Metrics.dropped_total m);
  Alcotest.(check int) "all resolved" m.Metrics.injected m.Metrics.resolved;
  Cluster.check_invariants cluster

let test_latency_sane () =
  let cluster = mk_cluster () in
  run_uniform cluster;
  let m = Cluster.metrics cluster in
  let mean = Stats.mean m.Metrics.latency in
  (* every hop costs >= network delay; resolution needs >= 1 message *)
  Alcotest.(check bool) "latency above one network hop" true
    (mean >= cluster.Cluster.config.Config.network_delay);
  Alcotest.(check bool) "latency below a second at low load" true (mean < 1.0);
  Alcotest.(check bool) "hops positive" true (Stats.mean m.Metrics.hops > 0.0)

let test_caching_reduces_hops () =
  let with_cache = mk_cluster ~features:Config.bc () in
  let without = mk_cluster ~features:Config.base () in
  run_uniform ~rate:40.0 with_cache;
  run_uniform ~rate:40.0 without;
  let h_with = Stats.mean (Cluster.metrics with_cache).Metrics.hops in
  let h_without = Stats.mean (Cluster.metrics without).Metrics.hops in
  Alcotest.(check bool)
    (Printf.sprintf "hops %.2f < %.2f" h_with h_without)
    true (h_with < h_without)

let test_injection_validation () =
  let cluster = mk_cluster () in
  Alcotest.check_raises "bad src" (Invalid_argument "Cluster.inject: bad source server")
    (fun () -> Cluster.inject cluster ~src:999 ~dst:0);
  Alcotest.check_raises "bad dst" (Invalid_argument "Cluster.inject: bad destination node")
    (fun () -> Cluster.inject cluster ~src:0 ~dst:70000)

(* The request-queue bound (§4.1): lookups injected at one server in the
   same instant queue behind the one in service, and arrivals beyond
   [Server.queue_capacity] are dropped.  Every lookup names a node the
   server owns, so none is forwarded and the counts are exact. *)
let test_queue_bound () =
  let cap = Server.queue_capacity in
  let burst n =
    let tree = Build.balanced ~arity:2 ~levels:6 in
    let config = { Config.default with Config.num_servers = 8; seed = 5 } in
    let cluster = Cluster.create ~monitor:false ~config ~tree () in
    let s = Cluster.server cluster 0 in
    let dst = List.hd (Server.owned_nodes s) in
    for _ = 1 to n do
      Cluster.inject cluster ~src:0 ~dst
    done;
    Alcotest.(check int)
      (Printf.sprintf "n=%d: queue occupancy" n)
      (min (n - 1) cap) (Server.queue_length s);
    let audit = Invariant.create () in
    Invariant.check_server audit ~now:0.0 s;
    List.iter
      (fun v ->
        if v.Invariant.v_rule = "queue-bound" then
          Alcotest.failf "n=%d: %s" n (Invariant.describe v))
      (Invariant.violations audit);
    Cluster.run_until cluster 10.0;
    let m = Cluster.metrics cluster in
    Alcotest.(check int) (Printf.sprintf "n=%d: all resolved or dropped" n) n
      (m.Metrics.resolved + Metrics.dropped_total m);
    m.Metrics.dropped_queue
  in
  Alcotest.(check int) "capacity-sized burst drops none" 0 (burst cap);
  (* One lookup in service plus [cap] queued; the rest are dropped. *)
  Alcotest.(check int) "triple burst drops the excess" ((3 * cap) - 1 - cap) (burst (3 * cap))

let test_single_query_trace () =
  let cluster = mk_cluster () in
  let dst = 37 in
  let src = (cluster.Cluster.owner_of.(dst) + 1) mod Cluster.num_servers cluster in
  Cluster.inject cluster ~src ~dst;
  Cluster.run_until cluster 5.0;
  let m = Cluster.metrics cluster in
  Alcotest.(check int) "resolved" 1 m.Metrics.resolved;
  Alcotest.(check int) "injected" 1 m.Metrics.injected;
  (* route length bounded by hierarchical distance + reply *)
  Alcotest.(check bool) "hops bounded" true
    (Stats.mean m.Metrics.hops <= float_of_int (2 * Tree.max_depth cluster.Cluster.tree + 1))

let test_determinism () =
  let run () =
    let cluster = mk_cluster ~seed:77 () in
    run_uniform cluster;
    let m = Cluster.metrics cluster in
    ( m.Metrics.injected,
      m.Metrics.resolved,
      m.Metrics.replicas_created,
      m.Metrics.query_forwards,
      Stats.mean m.Metrics.latency )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical metrics across runs" true (a = b)

let test_seed_sensitivity () =
  let run seed =
    let cluster = mk_cluster ~seed () in
    run_uniform cluster;
    (Cluster.metrics cluster).Metrics.query_forwards
  in
  Alcotest.(check bool) "different seeds change the trajectory" true (run 1 <> run 2)

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)
(* ------------------------------------------------------------------ *)

let test_kill_loses_soft_state () =
  let cluster = mk_cluster () in
  run_uniform ~rate:250.0 ~duration:15.0 cluster;
  (* find a server with replicas *)
  let victim =
    Array.to_list cluster.Cluster.servers |> List.find (fun s -> s.Server.replica_count > 0)
  in
  let owned_before = victim.Server.owned_count in
  Cluster.kill cluster victim.Server.id;
  Alcotest.(check int) "replicas gone" 0 victim.Server.replica_count;
  Alcotest.(check int) "cache gone" 0 (Cache.length victim.Server.cache);
  Alcotest.(check int) "ownership durable" owned_before victim.Server.owned_count;
  Alcotest.(check bool) "marked dead" false victim.Server.alive;
  Alcotest.(check int) "alive count" (Cluster.num_servers cluster - 1) (Cluster.alive_servers cluster);
  Cluster.kill cluster victim.Server.id (* idempotent *);
  Cluster.revive cluster victim.Server.id;
  Alcotest.(check bool) "revived" true victim.Server.alive

let test_queries_survive_replica_failure () =
  (* Kill a server that replicates a node (but does not own it): lookups
     must keep resolving via the owner. *)
  let cluster = mk_cluster ~servers:16 ~levels:5 () in
  run_uniform ~rate:250.0 ~duration:15.0 cluster;
  let victim =
    Array.to_list cluster.Cluster.servers |> List.find (fun s -> s.Server.replica_count > 0)
  in
  Cluster.kill cluster victim.Server.id;
  let m0 = Cluster.metrics cluster in
  let resolved_before = m0.Metrics.resolved in
  let drops_before = Metrics.dropped_total m0 in
  (* lookups to nodes NOT owned by the victim *)
  let tree = cluster.Cluster.tree in
  let n_queries = ref 0 in
  Tree.iter tree (fun dst ->
      if cluster.Cluster.owner_of.(dst) <> victim.Server.id && !n_queries < 40 then begin
        incr n_queries;
        let src = (victim.Server.id + 1 + (dst mod 7)) mod 16 in
        if src <> victim.Server.id then Cluster.inject cluster ~src ~dst
      end);
  Cluster.run_until cluster (Cluster.now cluster +. 30.0);
  let m = Cluster.metrics cluster in
  let resolved_delta = m.Metrics.resolved - resolved_before in
  let drop_delta = Metrics.dropped_total m - drops_before in
  Alcotest.(check bool)
    (Printf.sprintf "resolved %d, dropped %d" resolved_delta drop_delta)
    true
    (resolved_delta > 30 && drop_delta = 0)

let test_owner_failure_drops_only_its_nodes () =
  let cluster = mk_cluster ~servers:16 ~levels:5 ~features:Config.bc () in
  (* no replication: the owner is the only host; killing it makes its
     leaf nodes unreachable *)
  let victim = 3 in
  Cluster.kill cluster victim;
  let tree = cluster.Cluster.tree in
  (* a leaf owned by the victim (leaves are nobody's routing context) *)
  let victim_leaf =
    Tree.leaves tree |> List.find_opt (fun n -> cluster.Cluster.owner_of.(n) = victim)
  in
  (match victim_leaf with
  | None -> ()
  | Some dst ->
    let src = (victim + 1) mod 16 in
    Cluster.inject cluster ~src ~dst;
    Cluster.run_until cluster (Cluster.now cluster +. 30.0);
    Alcotest.(check bool) "query for dead owner's leaf fails" true
      (Metrics.dropped_total (Cluster.metrics cluster) > 0));
  (* other nodes still resolve *)
  let m = Cluster.metrics cluster in
  let resolved_before = m.Metrics.resolved in
  let other_leaf =
    Tree.leaves tree |> List.find (fun n -> cluster.Cluster.owner_of.(n) <> victim)
  in
  (* route from a live server; the route may pass near the dead server but
     bounce-retries find alternatives when they exist *)
  Cluster.inject cluster ~src:((victim + 2) mod 16) ~dst:other_leaf;
  Cluster.run_until cluster (Cluster.now cluster +. 30.0);
  ignore resolved_before;
  Cluster.check_invariants cluster

(* ------------------------------------------------------------------ *)
(* Network faults: partitions, timeouts, retransmission                *)
(* ------------------------------------------------------------------ *)

(* One partition-then-heal run: servers 0-3 cut off from 4-15 between
   t=5 and t=12, uniform traffic throughout, then a drain long enough for
   every retransmission timer to expire.  Returns the full counter
   snapshot.  [max_retries] is the variable under test: with retries the
   partition window (7 s) sits inside the total attempt span
   (1+2+4+8 = 15 s), so cross-cut queries injected during the partition
   retry their way past the heal; with [max_retries = 0] the single 1 s
   timer expires inside the partition and the query dies. *)
let partition_heal_run ~max_retries ~seed =
  let tree = Build.balanced ~arity:2 ~levels:5 in
  let config =
    {
      Config.default with
      Config.num_servers = 16;
      seed;
      rpc_timeout = 1.0;
      max_retries;
      retry_backoff = 2.0;
    }
  in
  let cluster = Cluster.create ~config ~tree () in
  let side_a = [ 0; 1; 2; 3 ] in
  let side_b = List.init 12 (fun i -> i + 4) in
  let pid = ref None in
  Engine.schedule_at cluster.Cluster.engine 5.0 (fun () ->
      pid := Some (Net.partition cluster.Cluster.net ~a:side_a ~b:side_b));
  Engine.schedule_at cluster.Cluster.engine 12.0 (fun () ->
      Option.iter (Net.heal cluster.Cluster.net) !pid);
  Scenario.run cluster ~phases:(Stream.unif ~rate:100.0 ~duration:25.0) ~seed:33;
  Cluster.run_until cluster (Cluster.now cluster +. 25.0);
  Cluster.check_invariants cluster;
  cluster

let snapshot cluster =
  let m = Cluster.metrics cluster in
  ( m.Metrics.injected,
    m.Metrics.resolved,
    Metrics.dropped_total m,
    m.Metrics.dropped_timeout,
    m.Metrics.query_retransmits,
    m.Metrics.net_blocked,
    Stats.mean m.Metrics.latency,
    Stats.mean m.Metrics.hops )

let test_partition_heal_recovers () =
  let cluster = partition_heal_run ~max_retries:3 ~seed:21 in
  let injected, resolved, dropped, timed_out, retransmits, blocked, _, _ = snapshot cluster in
  Alcotest.(check int) "every query finalized" injected (resolved + dropped);
  Alcotest.(check int) "no request left pending" 0
    (Array.fold_left (fun a h -> a + Hashtbl.length h) 0 cluster.Cluster.pending);
  Alcotest.(check bool) "the cut actually dropped traffic" true (blocked > 100);
  Alcotest.(check bool) "timers actually fired" true (retransmits > 50);
  (* retries carry cross-cut queries past the heal: near-total success *)
  Alcotest.(check bool)
    (Printf.sprintf "resolved %d/%d, timed out %d" resolved injected timed_out)
    true
    (float_of_int resolved /. float_of_int injected > 0.95);
  (* after the heal, fresh queries across the former cut all resolve *)
  let before = (Cluster.metrics cluster).Metrics.resolved in
  let probes = [ (0, 40); (1, 17); (5, 3); (12, 9) ] in
  List.iter (fun (src, dst) -> Cluster.inject cluster ~src ~dst) probes;
  Cluster.run_until cluster (Cluster.now cluster +. 20.0);
  Alcotest.(check int) "post-heal probes all resolve"
    (before + List.length probes)
    (Cluster.metrics cluster).Metrics.resolved

let test_partition_heal_deterministic () =
  (* the acceptance bar: the same seed must reproduce the identical
     metrics snapshot, retransmissions and all *)
  let a = snapshot (partition_heal_run ~max_retries:3 ~seed:21) in
  let b = snapshot (partition_heal_run ~max_retries:3 ~seed:21) in
  Alcotest.(check bool) "identical faulty runs" true (a = b)

let test_no_retries_measurably_worse () =
  let _, res_retry, _, to_retry, _, _, _, _ =
    snapshot (partition_heal_run ~max_retries:3 ~seed:21)
  in
  let inj, res_none, _, to_none, _, _, _, _ =
    snapshot (partition_heal_run ~max_retries:0 ~seed:21)
  in
  Alcotest.(check bool)
    (Printf.sprintf "resolved with retries %d vs without %d (of %d)" res_retry res_none inj)
    true
    (res_retry > res_none + 50);
  Alcotest.(check bool)
    (Printf.sprintf "timeouts %d vs %d" to_retry to_none)
    true (to_none > to_retry)

let test_owner_lost_mid_fetch_fails_over () =
  (* Two data holders per node; the owner becomes unreachable in two ways
     (fail-stop -> bounce-driven failover; silent partition -> timer-driven
     failover).  Either way the fetch must complete via the other holder. *)
  let tree = Build.balanced ~arity:2 ~levels:5 in
  let config =
    {
      Config.default with
      Config.num_servers = 16;
      seed = 6;
      data_copies = 2;
      rpc_timeout = 0.5;
      max_retries = 3;
      retry_backoff = 2.0;
    }
  in
  let cluster = Cluster.create ~config ~tree () in
  let pick_node ~client =
    (* a node whose two holders are distinct and exclude the client *)
    let rec find n =
      let holders = Array.of_list (Protocol.holders cluster.Cluster.core n) in
      if Array.length holders = 2 && holders.(0) <> holders.(1)
         && (not (Array.mem client holders))
      then n
      else find (n + 1)
    in
    find 0
  in
  (* bounce-driven: kill the owner while the request is in flight *)
  let client = 7 in
  let node = pick_node ~client in
  let owner = cluster.Cluster.owner_of.(node) in
  let outcome = ref None in
  Cluster.fetch cluster ~client ~node ~on_done:(fun o -> outcome := Some o);
  Cluster.kill cluster owner;
  Cluster.run_until cluster (Cluster.now cluster +. 20.0);
  (match !outcome with
  | Some (Types.Fetched _) -> ()
  | Some Types.Fetch_failed -> Alcotest.fail "fetch must fail over to the surviving holder"
  | None -> Alcotest.fail "fetch never completed");
  Cluster.revive cluster owner;
  (* timer-driven: the owner is alive but silently unreachable *)
  let client2 = 11 in
  let node2 = pick_node ~client:client2 in
  let owner2 = cluster.Cluster.owner_of.(node2) in
  ignore (Net.partition cluster.Cluster.net ~a:[ client2 ] ~b:[ owner2 ]);
  let outcome2 = ref None in
  Cluster.fetch cluster ~client:client2 ~node:node2 ~on_done:(fun o -> outcome2 := Some o);
  Cluster.run_until cluster (Cluster.now cluster +. 20.0);
  (match !outcome2 with
  | Some (Types.Fetched _) -> ()
  | Some Types.Fetch_failed -> Alcotest.fail "fetch must time out onto the other holder"
  | None -> Alcotest.fail "partitioned fetch never finalized");
  Alcotest.(check int) "no fetch left pending" 0
    (Array.fold_left (fun a h -> a + Hashtbl.length h) 0 cluster.Cluster.pending)

let test_fetch_failover_many_holders () =
  (* Regression for the failover holder filter: with many data copies the
     tried-set is consulted once per remaining holder on every attempt, so
     a long failover chain (here 11 dead holders before the survivor) used
     to cost O(tried²) list scans.  Behavior must be unchanged: walk the
     dead holders via bounces, complete on the survivor, and fail cleanly
     when no holder is left. *)
  let tree = Build.balanced ~arity:2 ~levels:5 in
  let config =
    {
      Config.default with
      Config.num_servers = 32;
      seed = 8;
      data_copies = 12;
      rpc_timeout = 0.5;
      max_retries = 3;
      retry_backoff = 2.0;
    }
  in
  let cluster = Cluster.create ~config ~tree () in
  let client = 3 in
  let node =
    let rec find n =
      let holders = Array.of_list (Protocol.holders cluster.Cluster.core n) in
      if Array.length holders = 12 && not (Array.mem client holders) then n else find (n + 1)
    in
    find 0
  in
  let holders = Array.of_list (Protocol.holders cluster.Cluster.core node) in
  (* keep exactly one non-owner holder alive *)
  let survivor = holders.(Array.length holders - 1) in
  Array.iter (fun h -> if h <> survivor then Cluster.kill cluster h) holders;
  let outcome = ref None in
  Cluster.fetch cluster ~client ~node ~on_done:(fun o -> outcome := Some o);
  Cluster.run_until cluster (Cluster.now cluster +. 30.0);
  (match !outcome with
  | Some (Types.Fetched _) -> ()
  | Some Types.Fetch_failed ->
    Alcotest.fail "fetch must fail over across 11 dead holders to the survivor"
  | None -> Alcotest.fail "fetch never completed");
  (* with the survivor also gone, the chain exhausts and fails cleanly *)
  Cluster.kill cluster survivor;
  let outcome2 = ref None in
  Cluster.fetch cluster ~client ~node ~on_done:(fun o -> outcome2 := Some o);
  Cluster.run_until cluster (Cluster.now cluster +. 60.0);
  (match !outcome2 with
  | Some Types.Fetch_failed -> ()
  | Some (Types.Fetched _) -> Alcotest.fail "no holder is alive; fetch cannot succeed"
  | None -> Alcotest.fail "exhausted fetch never finalized");
  Alcotest.(check int) "no fetch left pending" 0
    (Array.fold_left (fun a h -> a + Hashtbl.length h) 0 cluster.Cluster.pending)

let test_dead_link_degrades_but_never_deadlocks () =
  (* 100% loss on one directed link for the whole run (a directed
     partition is exactly that).  Every request must still finalize:
     resolved or counted dropped, nothing stuck. *)
  let tree = Build.balanced ~arity:2 ~levels:5 in
  let config =
    {
      Config.default with
      Config.num_servers = 16;
      seed = 14;
      rpc_timeout = 0.5;
      max_retries = 2;
      retry_backoff = 2.0;
    }
  in
  let cluster = Cluster.create ~config ~tree () in
  ignore (Net.partition ~directed:true cluster.Cluster.net ~a:[ 0 ] ~b:[ 1 ]);
  Scenario.run cluster ~phases:(Stream.unif ~rate:100.0 ~duration:20.0) ~seed:8;
  Cluster.run_until cluster (Cluster.now cluster +. 20.0);
  let m = Cluster.metrics cluster in
  Alcotest.(check int) "accounting identity" m.Metrics.injected
    (m.Metrics.resolved + Metrics.dropped_total m);
  Alcotest.(check int) "no query pending" 0
    (Array.fold_left (fun a h -> a + Hashtbl.length h) 0 cluster.Cluster.pending);
  Alcotest.(check bool) "link dropped traffic" true (m.Metrics.net_blocked > 0);
  Alcotest.(check bool)
    (Printf.sprintf "still mostly working: %d/%d" m.Metrics.resolved m.Metrics.injected)
    true
    (float_of_int m.Metrics.resolved /. float_of_int m.Metrics.injected > 0.9);
  Cluster.check_invariants cluster

(* ------------------------------------------------------------------ *)
(* Membership change (ownership handoff extension)                     *)
(* ------------------------------------------------------------------ *)

let test_handoff_transfers_ownership () =
  let cluster = mk_cluster () in
  let node = 23 in
  let donor = cluster.Cluster.owner_of.(node) in
  let recipient = (donor + 1) mod Cluster.num_servers cluster in
  Cluster.handoff cluster ~node ~to_:recipient;
  Alcotest.(check int) "ground truth moved" recipient cluster.Cluster.owner_of.(node);
  Alcotest.(check bool) "donor no longer hosts" false
    (Server.hosts (Cluster.server cluster donor) node);
  (match Server.find_hosted (Cluster.server cluster recipient) node with
  | Some h -> Alcotest.(check bool) "recipient owns" true (h.Server.h_kind = Server.Owned)
  | None -> Alcotest.fail "recipient must host");
  Alcotest.(check bool) "data moved" true
    (List.mem recipient (Protocol.holders cluster.Cluster.core node));
  Cluster.check_invariants cluster;
  (* lookups still resolve, from anywhere *)
  let before = (Cluster.metrics cluster).Metrics.resolved in
  Cluster.inject cluster ~src:((donor + 3) mod 24) ~dst:node;
  Cluster.inject cluster ~src:donor ~dst:node;
  Cluster.run_until cluster (Cluster.now cluster +. 10.0);
  Alcotest.(check int) "both resolve post-handoff" (before + 2)
    (Cluster.metrics cluster).Metrics.resolved;
  Alcotest.check_raises "double handoff" (Invalid_argument "Cluster.handoff: already the owner")
    (fun () -> Cluster.handoff cluster ~node ~to_:recipient)

let test_handoff_upgrades_replica () =
  let cluster = mk_cluster () in
  run_uniform ~rate:250.0 ~duration:15.0 cluster;
  (* find a replica and hand its node's ownership to the replica holder *)
  let holder =
    Array.to_list cluster.Cluster.servers |> List.find (fun s -> s.Server.replica_count > 0)
  in
  let node = List.hd (Server.replica_nodes holder) in
  Cluster.handoff cluster ~node ~to_:holder.Server.id;
  (match Server.find_hosted holder node with
  | Some h -> Alcotest.(check bool) "upgraded in place" true (h.Server.h_kind = Server.Owned)
  | None -> Alcotest.fail "holder must own now");
  Cluster.check_invariants cluster

let test_graceful_leave_keeps_namespace_reachable () =
  let cluster = mk_cluster ~servers:16 ~levels:5 () in
  let leaver = 3 in
  let owned = Server.owned_nodes (Cluster.server cluster leaver) in
  Cluster.graceful_leave cluster leaver;
  Alcotest.(check bool) "left" false (Cluster.server cluster leaver).Server.alive;
  Alcotest.(check int) "nothing owned anymore" 0
    (Cluster.server cluster leaver).Server.owned_count;
  Cluster.check_invariants cluster;
  (* every node it used to own still resolves *)
  let before = (Cluster.metrics cluster).Metrics.resolved in
  List.iter (fun dst -> Cluster.inject cluster ~src:((leaver + 1) mod 16) ~dst) owned;
  Cluster.run_until cluster (Cluster.now cluster +. 30.0);
  Alcotest.(check int) "all former nodes resolve"
    (before + List.length owned)
    (Cluster.metrics cluster).Metrics.resolved

let test_monitor_series_collected () =
  let cluster = mk_cluster () in
  run_uniform ~rate:100.0 ~duration:10.0 cluster;
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) "load series sampled" true
    (Timeseries.num_bins m.Metrics.load_mean_ts >= 9);
  let means = Timeseries.means m.Metrics.load_mean_ts in
  Alcotest.(check bool) "loads in range" true
    (Array.for_all (fun l -> l >= 0.0 && l <= 1.0) means);
  Alcotest.(check bool) "some load measured" true (Array.exists (fun l -> l > 0.0) means)

let test_replicas_per_level_shapes () =
  let cluster = mk_cluster ~servers:16 ~levels:5 () in
  Scenario.run cluster
    ~phases:[ { Stream.duration = 20.0; rate = 250.0; dist = Stream.Zipf { alpha = 1.2; reshuffle = true } } ]
    ~seed:5;
  let created = Cluster.replicas_per_level cluster `Created in
  let current = Cluster.replicas_per_level cluster `Current in
  Alcotest.(check int) "level arrays span namespace" 6 (Array.length created);
  Alcotest.(check bool) "created >= current everywhere" true
    (Array.for_all2 (fun a b -> a >= b) created current);
  Alcotest.(check bool) "something replicated" true (Array.exists (fun x -> x > 0.0) created)

(* Property: arbitrary interleavings of kill / revive / handoff / traffic
   preserve every structural invariant, and afterwards each node owned by
   an alive server still resolves. *)
let prop_membership_churn_invariants =
  QCheck.Test.make ~name:"cluster: membership churn preserves invariants" ~count:12
    QCheck.(pair (int_bound 1000) (list_of_size (Gen.int_range 4 16) (pair (int_bound 3) (int_bound 15))))
    (fun (seed, ops) ->
      let tree = Build.balanced ~arity:2 ~levels:5 in
      let config = { Config.default with Config.num_servers = 16; seed = seed + 1 } in
      let cluster = Cluster.create ~config ~tree () in
      let run_for secs = Cluster.run_until cluster (Cluster.now cluster +. secs) in
      List.iter
        (fun (op, arg) ->
          (match op with
          | 0 -> Cluster.kill cluster arg
          | 1 -> Cluster.revive cluster arg
          | 2 ->
            let node = (arg * 7) mod Tree.size tree in
            let to_ = (arg + 3) mod 16 in
            let owner_alive = (Cluster.server cluster cluster.Cluster.owner_of.(node)).Server.alive in
            if
              (Cluster.server cluster to_).Server.alive
              && owner_alive
              && cluster.Cluster.owner_of.(node) <> to_
            then Cluster.handoff cluster ~node ~to_
          | _ ->
            if Cluster.alive_servers cluster > 0 then
              ignore (Cluster.inject_uniform_src cluster ~dst:(arg mod Tree.size tree) : int));
          run_for 0.5)
        ops;
      (* bring everyone back and verify reachability of the namespace *)
      for sid = 0 to 15 do
        Cluster.revive cluster sid
      done;
      run_for 5.0;
      Cluster.check_invariants cluster;
      let before = (Cluster.metrics cluster).Metrics.resolved in
      let probes = [ 0; 3; 9; 17; 30; 45; 60 ] in
      List.iter (fun dst -> Cluster.inject cluster ~src:(dst mod 16) ~dst) probes;
      run_for 60.0;
      (Cluster.metrics cluster).Metrics.resolved = before + List.length probes)

let () =
  Alcotest.run "terradir_cluster"
    [
      ( "bootstrap",
        [
          Alcotest.test_case "placement" `Quick test_bootstrap_placement;
          Alcotest.test_case "round robin" `Quick test_round_robin_placement;
          Alcotest.test_case "bootstrap maps shared" `Quick test_bootstrap_maps_shared;
          Alcotest.test_case "grouped = node-order bootstrap" `Quick test_grouped_bootstrap;
          Alcotest.test_case "injection validation" `Quick test_injection_validation;
          Alcotest.test_case "queue bound" `Quick test_queue_bound;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "all resolve at low load" `Slow test_all_resolve_at_low_load;
          Alcotest.test_case "latency sane" `Slow test_latency_sane;
          Alcotest.test_case "caching reduces hops" `Slow test_caching_reduces_hops;
          Alcotest.test_case "single query trace" `Quick test_single_query_trace;
          Alcotest.test_case "determinism" `Slow test_determinism;
          Alcotest.test_case "seed sensitivity" `Slow test_seed_sensitivity;
          Alcotest.test_case "monitor series" `Slow test_monitor_series_collected;
          Alcotest.test_case "replica level shapes" `Slow test_replicas_per_level_shapes;
        ] );
      ( "membership",
        [
          Alcotest.test_case "handoff" `Quick test_handoff_transfers_ownership;
          Alcotest.test_case "handoff upgrades replica" `Slow test_handoff_upgrades_replica;
          Alcotest.test_case "graceful leave" `Quick test_graceful_leave_keeps_namespace_reachable;
        ] );
      ( "failures",
        [
          Alcotest.test_case "kill loses soft state" `Slow test_kill_loses_soft_state;
          Alcotest.test_case "replica failure survivable" `Slow test_queries_survive_replica_failure;
          Alcotest.test_case "owner failure scoped" `Slow test_owner_failure_drops_only_its_nodes;
        ] );
      ( "network-faults",
        [
          Alcotest.test_case "partition+heal recovers" `Slow test_partition_heal_recovers;
          Alcotest.test_case "faulty run deterministic" `Slow test_partition_heal_deterministic;
          Alcotest.test_case "no retries measurably worse" `Slow test_no_retries_measurably_worse;
          Alcotest.test_case "fetch fails over" `Quick test_owner_lost_mid_fetch_fails_over;
          Alcotest.test_case "fetch failover, many holders" `Quick test_fetch_failover_many_holders;
          Alcotest.test_case "dead link no deadlock" `Slow test_dead_link_degrades_but_never_deadlocks;
        ] );
      ( "cluster-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_membership_churn_invariants ] );
    ]
