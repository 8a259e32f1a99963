(* Tests for the replication protocol decisions (§3.3–§3.5) — the pure
   helpers plus protocol-level behavior driven through a live cluster. *)

open Terradir_util
open Terradir_namespace
open Terradir
open Terradir_workload

let flt = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Pure decision helpers                                               *)
(* ------------------------------------------------------------------ *)

let test_shed_target () =
  flt "balanced halves the gap" 0.25 (Replication.shed_target ~l_source:0.8 ~l_dest:0.4);
  flt "idle destination" 0.5 (Replication.shed_target ~l_source:0.8 ~l_dest:0.0);
  flt "no load no shed" 0.0 (Replication.shed_target ~l_source:0.0 ~l_dest:0.0);
  flt "negative gap clamps" 0.0 (Replication.shed_target ~l_source:0.3 ~l_dest:0.9)

let test_acceptable () =
  let config = Config.default (* min_delta = 0.2 *) in
  Alcotest.(check bool) "gap above delta" true
    (Replication.acceptable ~config ~l_source:0.9 ~l_dest:0.5);
  Alcotest.(check bool) "gap at delta" true
    (Replication.acceptable ~config ~l_source:0.9 ~l_dest:0.7);
  Alcotest.(check bool) "gap below delta" false
    (Replication.acceptable ~config ~l_source:0.6 ~l_dest:0.5)

let test_adjusted_load () =
  flt "midpoint" 0.6 (Replication.adjusted_load ~l_source:0.8 ~l_dest:0.4)

let tree = Build.balanced ~arity:2 ~levels:4

(* Bootstrap maps as {!Cluster.create} builds them, with [n] owned by [s]
   and every other node by [owner_of]. *)
let add_owned s n ~owner_of =
  Server.add_owned s n ~owner_map:(fun v ->
      let server = if v = n then s.Server.id else owner_of v in
      Node_map.singleton ~is_owner:true ~server ~stamp:0.0 ())

let server_with_weights weights =
  let config = { Config.default with Config.num_servers = 8 } in
  let s = Server.create ~id:0 ~config ~tree ~rng:(Splitmix.create 3) () in
  List.iter
    (fun (node, w) ->
      add_owned s node ~owner_of:(fun v -> v mod 8);
      Ranking.seed s.Server.ranking node w)
    weights;
  s

let test_select_nodes_prefix () =
  (* weights: 8, 4, 2, 1, 1 → total 16 *)
  let s = server_with_weights [ (1, 8.0); (2, 4.0); (3, 2.0); (4, 1.0); (5, 1.0) ] in
  (* shed target (0.8-0.4)/(2·0.8) = 0.25 → want 4 of 16 → node 1 alone. *)
  Alcotest.(check (list int)) "one node suffices" [ 1 ]
    (Replication.select_nodes s ~l_source:0.8 ~l_dest:0.4 ~now:1.0);
  (* idle destination: want 8 of 16 → node 1 alone reaches exactly 8. *)
  Alcotest.(check (list int)) "prefix grows with the gap" [ 1 ]
    (Replication.select_nodes s ~l_source:0.8 ~l_dest:0.0 ~now:1.0);
  (* flatter weights force a multi-node prefix: total 12, want 6. *)
  let s2 = server_with_weights [ (6, 4.0); (9, 4.0); (10, 2.0); (11, 1.0); (12, 1.0) ] in
  Alcotest.(check (list int)) "heaviest first, smallest sufficient prefix" [ 6; 9 ]
    (Replication.select_nodes s2 ~l_source:1.0 ~l_dest:0.0 ~now:1.0)

let test_select_nodes_no_demand () =
  let s = server_with_weights [ (1, 0.0) ] in
  Alcotest.(check (list int)) "no recorded demand, nothing to shed" []
    (Replication.select_nodes s ~l_source:0.9 ~l_dest:0.1 ~now:1.0)

let test_select_nodes_cap () =
  let nodes = List.init 31 (fun i -> (i, 1.0)) in
  let s = server_with_weights nodes in
  let selected = Replication.select_nodes s ~l_source:1.0 ~l_dest:0.0 ~now:1.0 in
  Alcotest.(check bool) "bounded by max_shed_nodes" true
    (List.length selected <= Replication.max_shed_nodes)

let test_should_start_gates () =
  let config = { Config.default with Config.num_servers = 8; high_water = 0.7 } in
  let s = Server.create ~id:0 ~config ~tree ~rng:(Splitmix.create 5) () in
  (* Roll the meter to [now] first, then install the adjustment, so the
     windowing does not clear it before should_start reads it. *)
  let set_load srv now v =
    ignore (Load_meter.raw_load srv.Server.load now);
    Load_meter.set_adjustment srv.Server.load v
  in
  (* no hosted nodes *)
  set_load s 0.1 0.9;
  Alcotest.(check bool) "nothing to replicate" false (Replication.should_start s ~now:0.1);
  add_owned s 1 ~owner_of:(fun v -> v mod 8);
  set_load s 0.1 0.9;
  Alcotest.(check bool) "hot server starts" true (Replication.should_start s ~now:0.1);
  (* below threshold *)
  set_load s 0.1 0.5;
  Alcotest.(check bool) "cool server does not" false (Replication.should_start s ~now:0.1);
  (* backoff respected *)
  Server.set_session_backoff_until s 5.0;
  set_load s 4.0 0.9;
  Alcotest.(check bool) "backoff" false (Replication.should_start s ~now:4.0);
  set_load s 5.0 0.9;
  Alcotest.(check bool) "backoff expired" true (Replication.should_start s ~now:5.0);
  (* session in flight *)
  s.Server.session <- Some { Server.session_id = 1; tried = []; attempts = 1 };
  set_load s 6.0 0.9;
  Alcotest.(check bool) "one session at a time" false (Replication.should_start s ~now:6.0);
  s.Server.session <- None;
  (* feature gate *)
  let cfg_off = { config with Config.features = Config.bc } in
  let s2 = Server.create ~id:1 ~config:cfg_off ~tree ~rng:(Splitmix.create 6) () in
  add_owned s2 2 ~owner_of:(fun v -> v mod 8);
  set_load s2 0.1 0.9;
  Alcotest.(check bool) "replication disabled" false (Replication.should_start s2 ~now:0.1)

let test_effective_high_water () =
  let config =
    { Config.default with Config.num_servers = 8; high_water = 0.7; high_water_factor = 1.6 }
  in
  let s = Server.create ~id:0 ~config ~tree ~rng:(Splitmix.create 8) () in
  (* empty peer table, idle self: the floor applies *)
  flt "floor at idle" 0.7 (Replication.effective_high_water s ~now:0.1);
  (* believed overall utilization 0.5 → 1.6 × 0.5 = 0.8 *)
  List.iteri (fun i load -> Server.note_peer_load s (i + 1) load) [ 0.5; 0.5; 0.5; 0.5; 0.5 ];
  let thr = Replication.effective_high_water s ~now:0.1 in
  (* own raw load 0 pulls the mean to 2.5/6 ≈ 0.417 → 0.667 < floor *)
  flt "own idle load counts" 0.7 thr;
  List.iter (fun i -> Server.note_peer_load s i 0.9) [ 1; 2; 3; 4; 5 ];
  let thr = Replication.effective_high_water s ~now:0.1 in
  Alcotest.(check bool) (Printf.sprintf "raised above floor (%.3f)" thr) true (thr > 0.7);
  Alcotest.(check bool) "capped at 0.95" true (thr <= 0.95);
  (* factor 0 disables adaptation *)
  let cfg0 = { config with Config.high_water_factor = 0.0 } in
  let s0 = Server.create ~id:1 ~config:cfg0 ~tree ~rng:(Splitmix.create 9) () in
  List.iter (fun i -> Server.note_peer_load s0 i 0.9) [ 1; 2; 3 ];
  flt "constant threshold" 0.7 (Replication.effective_high_water s0 ~now:0.1)

(* ------------------------------------------------------------------ *)
(* Protocol-level behavior                                             *)
(* ------------------------------------------------------------------ *)

let hot_run ?(features = Config.bcr) ?(r_fact = 2.0) ?(duration = 40.0) ?(rate = 300.0) () =
  let tree = Build.balanced ~arity:2 ~levels:8 in
  let config =
    {
      Config.default with
      Config.num_servers = 32;
      features;
      r_fact;
      seed = 13;
    }
  in
  let cluster = Cluster.create ~config ~tree () in
  Scenario.run cluster
    ~phases:[ { Stream.duration; rate; dist = Stream.Zipf { alpha = 1.3; reshuffle = true } } ]
    ~seed:21;
  cluster

let test_hot_spot_triggers_replication () =
  let cluster = hot_run () in
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) "sessions started" true (m.Metrics.sessions_started > 0);
  Alcotest.(check bool) "replicas created" true (m.Metrics.replicas_created > 10);
  Cluster.check_invariants cluster

let test_budget_respected_cluster_wide () =
  let cluster = hot_run ~r_fact:1.0 () in
  Array.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "server %d within budget" s.Server.id)
        true
        (float_of_int s.Server.replica_count
        <= (1.0 *. float_of_int s.Server.owned_count) +. 1e-9))
    cluster.Cluster.servers

let test_no_replication_when_disabled () =
  let cluster = hot_run ~features:Config.bc () in
  let m = Cluster.metrics cluster in
  Alcotest.(check int) "no replicas" 0 m.Metrics.replicas_created;
  Alcotest.(check int) "no sessions" 0 m.Metrics.sessions_started;
  Alcotest.(check int) "no control traffic" 0 m.Metrics.control_messages

let test_control_traffic_is_light () =
  let cluster = hot_run () in
  let m = Cluster.metrics cluster in
  (* The paper: load-balancing messages at least two orders of magnitude
     fewer than queries.  At this tiny scale we check one order. *)
  Alcotest.(check bool)
    (Printf.sprintf "control %d << queries %d" m.Metrics.control_messages m.Metrics.injected)
    true
    (m.Metrics.control_messages * 10 < m.Metrics.injected)

let test_replication_reduces_drops () =
  let with_repl = hot_run () in
  let without = hot_run ~features:Config.bc () in
  let f_with = Metrics.drop_fraction (Cluster.metrics with_repl) in
  let f_without = Metrics.drop_fraction (Cluster.metrics without) in
  Alcotest.(check bool)
    (Printf.sprintf "drops with (%.4f) < without (%.4f)" f_with f_without)
    true (f_with < f_without)

let test_replicas_follow_demand () =
  let cluster = hot_run () in
  (* Replicated nodes should skew toward the top of the namespace plus the
     hot spots: at minimum, the average depth of replicated nodes must be
     strictly less than the namespace's average depth (hierarchical
     bottleneck relief). *)
  let total = ref 0 and count = ref 0 in
  Array.iter
    (fun s ->
      List.iter
        (fun n ->
          total := !total + Tree.depth cluster.Cluster.tree n;
          incr count)
        (Server.replica_nodes s))
    cluster.Cluster.servers;
  Alcotest.(check bool) "some replicas" true (!count > 0);
  let avg_replica_depth = float_of_int !total /. float_of_int !count in
  let ns_avg_depth =
    float_of_int
      (Tree.fold cluster.Cluster.tree ~init:0 ~f:(fun acc v -> acc + Tree.depth cluster.Cluster.tree v))
    /. float_of_int (Tree.size cluster.Cluster.tree)
  in
  Alcotest.(check bool)
    (Printf.sprintf "replica depth %.2f < namespace depth %.2f" avg_replica_depth ns_avg_depth)
    true
    (avg_replica_depth < ns_avg_depth)

let test_static_replication () =
  let tree = Build.balanced ~arity:2 ~levels:6 in
  let config = { Config.default with Config.num_servers = 16; seed = 3 } in
  let cluster = Cluster.create ~monitor:false ~config ~tree () in
  let installed = Static_replication.apply cluster ~levels:3 ~copies:2 in
  (* 7 nodes above depth 3, 2 copies each *)
  Alcotest.(check int) "all copies placed" 14 installed;
  Alcotest.(check int) "cluster-wide count" 14 (Cluster.total_replicas cluster);
  let per_level = Cluster.replicas_per_level cluster `Current in
  Alcotest.(check (float 1e-9)) "root copies" 2.0 per_level.(0);
  Alcotest.(check (float 1e-9)) "level 2 average" 2.0 per_level.(2);
  Alcotest.(check (float 1e-9)) "below cutoff untouched" 0.0 per_level.(3);
  Cluster.check_invariants cluster

let test_static_replication_validation () =
  let tree = Build.balanced ~arity:2 ~levels:3 in
  let config = { Config.default with Config.num_servers = 4 } in
  let cluster = Cluster.create ~monitor:false ~config ~tree () in
  Alcotest.check_raises "negative levels"
    (Invalid_argument "Static_replication.apply: negative levels") (fun () ->
      ignore (Static_replication.apply cluster ~levels:(-1) ~copies:1))

(* ------------------------------------------------------------------ *)
(* Self-entry survival (the PR-3-documented truncation subtlety)       *)
(* ------------------------------------------------------------------ *)

(* An adversarial incoming map: r_map entries, every one sorting ahead of
   the new host's non-owner self entry (the owner first, then same-stamp
   entries with lower server ids).  A plain [Node_map.add] of self
   truncates it straight back out; the host would then advertise a map
   that does not include itself. *)
let adversarial_map ~r_map ~stamp =
  Node_map.of_entries ~max:r_map
    (List.init r_map (fun i -> { Node_map.server = i; is_owner = i = 0; stamp }))

let test_replica_self_survives_install () =
  let config = { Config.default with Config.num_servers = 8 } in
  let self = 7 in
  let s = Server.create ~id:self ~config ~tree ~rng:(Splitmix.create 11) () in
  (* Own one node so the replica budget (r_fact × owned) admits the install. *)
  add_owned s 1 ~owner_of:(fun _ -> self);
  let now = 5.0 in
  let payload =
    {
      Types.rp_node = 2;
      rp_meta_version = 0;
      rp_map = adversarial_map ~r_map:config.Config.r_map ~stamp:now;
      rp_context = [];
      rp_weight_hint = 1.0;
    }
  in
  (match Server.install_replica s payload ~now with
  | `Installed -> ()
  | `Merged | `Rejected -> Alcotest.fail "expected a fresh install");
  let h = Option.get (Server.find_hosted s 2) in
  Alcotest.(check bool) "self entry survives the install truncation" true
    (Node_map.mem h.Server.h_map self);
  Alcotest.(check int) "map stays within r_map" config.Config.r_map
    (Node_map.size h.Server.h_map);
  Alcotest.(check (option int)) "owner entry is never displaced" (Some 0)
    (Node_map.owner h.Server.h_map)

let test_replica_self_survives_merge () =
  let config = { Config.default with Config.num_servers = 8 } in
  let self = 7 in
  let s = Server.create ~id:self ~config ~tree ~rng:(Splitmix.create 13) () in
  add_owned s 1 ~owner_of:(fun _ -> self);
  let payload =
    {
      Types.rp_node = 2;
      rp_meta_version = 0;
      rp_map = Node_map.singleton ~is_owner:true ~server:0 ~stamp:1.0 ();
      rp_context = [];
      rp_weight_hint = 1.0;
    }
  in
  (match Server.install_replica s payload ~now:1.0 with
  | `Installed -> ()
  | `Merged | `Rejected -> Alcotest.fail "expected a fresh install");
  (* Piggybacked path state floods the hosted map with same-stamp entries
     that all sort ahead of the (older) self entry. *)
  Server.merge_into_known_map s 2 (adversarial_map ~r_map:config.Config.r_map ~stamp:9.0) ~now:9.0;
  let h = Option.get (Server.find_hosted s 2) in
  Alcotest.(check bool) "self entry survives the merge truncation" true
    (Node_map.mem h.Server.h_map self)

let test_add_pinned_never_displaces_owners () =
  (* Degenerate case: owner entries alone fill the map — pinning must give
     up rather than evict an owner. *)
  let owners =
    Node_map.of_entries ~max:2
      [
        { Node_map.server = 1; is_owner = true; stamp = 3.0 };
        { Node_map.server = 2; is_owner = true; stamp = 3.0 };
      ]
  in
  let pinned =
    Node_map.add_pinned ~max:2 owners { Node_map.server = 9; is_owner = false; stamp = 9.0 }
  in
  Alcotest.(check (list int)) "owners kept, pin dropped" [ 1; 2 ] (Node_map.servers pinned);
  (* Normal case: the lowest-priority non-owner is the victim. *)
  let mixed =
    Node_map.of_entries ~max:3
      [
        { Node_map.server = 1; is_owner = true; stamp = 5.0 };
        { Node_map.server = 2; is_owner = false; stamp = 5.0 };
        { Node_map.server = 3; is_owner = false; stamp = 5.0 };
      ]
  in
  let pinned =
    Node_map.add_pinned ~max:3 mixed { Node_map.server = 9; is_owner = false; stamp = 5.0 }
  in
  Alcotest.(check bool) "pinned entry present" true (Node_map.mem pinned 9);
  Alcotest.(check bool) "lowest-priority non-owner evicted" false (Node_map.mem pinned 3);
  Alcotest.(check int) "size bound held" 3 (Node_map.size pinned)

let () =
  Alcotest.run "terradir_replication"
    [
      ( "decisions",
        [
          Alcotest.test_case "shed target" `Quick test_shed_target;
          Alcotest.test_case "acceptable" `Quick test_acceptable;
          Alcotest.test_case "adjusted load" `Quick test_adjusted_load;
          Alcotest.test_case "select prefix" `Quick test_select_nodes_prefix;
          Alcotest.test_case "select no demand" `Quick test_select_nodes_no_demand;
          Alcotest.test_case "select cap" `Quick test_select_nodes_cap;
          Alcotest.test_case "should_start gates" `Quick test_should_start_gates;
          Alcotest.test_case "adaptive high water" `Quick test_effective_high_water;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "hot spot replicates" `Slow test_hot_spot_triggers_replication;
          Alcotest.test_case "budget cluster-wide" `Slow test_budget_respected_cluster_wide;
          Alcotest.test_case "disabled stays off" `Slow test_no_replication_when_disabled;
          Alcotest.test_case "control traffic light" `Slow test_control_traffic_is_light;
          Alcotest.test_case "reduces drops" `Slow test_replication_reduces_drops;
          Alcotest.test_case "replicas follow demand" `Slow test_replicas_follow_demand;
        ] );
      ( "static",
        [
          Alcotest.test_case "apply" `Quick test_static_replication;
          Alcotest.test_case "validation" `Quick test_static_replication_validation;
        ] );
      ( "self-entry",
        [
          Alcotest.test_case "install keeps self" `Quick test_replica_self_survives_install;
          Alcotest.test_case "merge keeps self" `Quick test_replica_self_survives_merge;
          Alcotest.test_case "owners never displaced" `Quick test_add_pinned_never_displaces_owners;
        ] );
    ]
