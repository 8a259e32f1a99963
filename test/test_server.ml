(* Tests for per-server state management: hosting, replica install/evict,
   neighbor-context refcounting, digest freshness, map bookkeeping. *)

open Terradir_util
open Terradir_namespace
open Terradir
open Types

let tree = Build.balanced ~arity:2 ~levels:4 (* 31 nodes *)

let config = { Config.default with Config.num_servers = 8; r_fact = 2.0; cache_slots = 8 }

let owner_of node = node mod 8

(* Bootstrap maps as {!Cluster.create} builds them, with [n] owned by [s]
   and every other node by [owner_of]. *)
let add_owned s n ~owner_of =
  Server.add_owned s n ~owner_map:(fun v ->
      let server = if v = n then s.Server.id else owner_of v in
      Node_map.singleton ~is_owner:true ~server ~stamp:0.0 ())

let mk_server ?(id = 0) ?(cfg = config) () =
  Server.create ~id ~config:cfg ~tree ~rng:(Splitmix.create (id + 100)) ()

let owned_server ?(id = 0) ?(cfg = config) nodes =
  let s = mk_server ~id ~cfg () in
  List.iter (fun n -> add_owned s n ~owner_of) nodes;
  s

let payload_for node =
  {
    rp_node = node;
    rp_meta_version = 3;
    rp_map = Node_map.singleton ~is_owner:true ~server:(owner_of node) ~stamp:1.0 ();
    rp_context =
      List.map
        (fun nb -> (nb, Node_map.singleton ~is_owner:true ~server:(owner_of nb) ~stamp:1.0 ()))
        (Tree.neighbors tree node);
    rp_weight_hint = 2.0;
  }

let test_add_owned () =
  let s = owned_server [ 1; 6 ] in
  Alcotest.(check bool) "hosts owned" true (Server.hosts s 1 && Server.hosts s 6);
  Alcotest.(check int) "owned count" 2 s.Server.owned_count;
  Alcotest.(check (list int)) "owned nodes" [ 1; 6 ] (List.sort compare (Server.owned_nodes s));
  (* context present for every tree neighbor *)
  List.iter
    (fun n ->
      List.iter
        (fun nb ->
          Alcotest.(check bool)
            (Printf.sprintf "context for %d" nb)
            true
            (Server.hosts s nb || Intmap.mem s.Server.neighbor_maps nb))
        (Tree.neighbors tree n))
    [ 1; 6 ];
  (* self pinned as owner in own map *)
  (match Server.find_hosted s 1 with
  | Some h -> Alcotest.(check (option int)) "owner is self" (Some 0) (Node_map.owner h.Server.h_map)
  | None -> Alcotest.fail "hosted");
  Invariant.assert_server s ~now:0.0;
  Alcotest.check_raises "double add" (Invalid_argument "Server.add_owned: already hosted")
    (fun () -> add_owned s 1 ~owner_of)

let test_digest_covers_hosted () =
  let s = owned_server [ 1; 6 ] in
  List.iter
    (fun n ->
      Alcotest.(check bool) "digest membership" true
        (Terradir_bloom.Bloom.mem (Digest_store.local s.Server.digests) n))
    [ 1; 6 ]

let test_install_replica () =
  let s = owned_server [ 1 ] in
  (match Server.install_replica s (payload_for 20) ~now:1.0 with
  | `Installed -> ()
  | `Merged | `Rejected -> Alcotest.fail "expected install");
  Alcotest.(check bool) "hosts replica" true (Server.hosts s 20);
  Alcotest.(check int) "replica count" 1 s.Server.replica_count;
  Alcotest.(check (list int)) "replica nodes" [ 20 ] (Server.replica_nodes s);
  (match Server.find_hosted s 20 with
  | Some h ->
    Alcotest.(check int) "meta version" 3 h.Server.h_meta_version;
    Alcotest.(check bool) "self in map" true (Node_map.mem h.Server.h_map 0);
    Alcotest.(check bool) "owner in map" true (Node_map.mem h.Server.h_map (owner_of 20))
  | None -> Alcotest.fail "hosted record");
  Alcotest.(check (float 1e-9)) "ranking seeded" 2.0 (Ranking.weight s.Server.ranking 20);
  Alcotest.(check bool) "digest updated" true
    (Terradir_bloom.Bloom.mem (Digest_store.local s.Server.digests) 20);
  Invariant.assert_server s ~now:1.0

let test_install_replica_merge () =
  let s = owned_server [ 1 ] in
  ignore (Server.install_replica s (payload_for 20) ~now:1.0);
  let newer = { (payload_for 20) with rp_meta_version = 9 } in
  (match Server.install_replica s newer ~now:2.0 with
  | `Merged -> ()
  | `Installed | `Rejected -> Alcotest.fail "expected merge");
  Alcotest.(check int) "still one replica" 1 s.Server.replica_count;
  match Server.find_hosted s 20 with
  | Some h -> Alcotest.(check int) "meta upgraded" 9 h.Server.h_meta_version
  | None -> Alcotest.fail "hosted"

let test_replica_budget_eviction () =
  let s = owned_server [ 1 ] in
  (* r_fact = 2, owned = 1 → at most 2 replicas. *)
  ignore (Server.install_replica s (payload_for 20) ~now:1.0);
  ignore (Server.install_replica s (payload_for 21) ~now:1.0);
  Alcotest.(check int) "budget exhausted" 0 (Server.replica_budget s);
  (* make 21 clearly hotter so 20 is the eviction victim *)
  Server.touch_node s 21 ~now:1.1;
  Server.touch_node s 21 ~now:1.2;
  (match Server.install_replica s (payload_for 22) ~now:2.0 with
  | `Installed -> ()
  | `Merged | `Rejected -> Alcotest.fail "expected install with eviction");
  Alcotest.(check int) "still at cap" 2 s.Server.replica_count;
  Alcotest.(check bool) "lowest-ranked evicted" false (Server.hosts s 20);
  Alcotest.(check bool) "hot replica kept" true (Server.hosts s 21);
  Alcotest.(check int) "eviction counted" 1 s.Server.replicas_evicted;
  Invariant.assert_server s ~now:2.0

let test_displacement_needs_dominance () =
  let s = owned_server [ 1 ] in
  ignore (Server.install_replica s (payload_for 20) ~now:1.0);
  ignore (Server.install_replica s (payload_for 21) ~now:1.0);
  (* all weights equal (hint 2.0): the incoming node does not dominate any
     victim, so nothing is displaced — no thrash under flat demand *)
  (match Server.install_replica s (payload_for 22) ~now:2.0 with
  | `Rejected -> ()
  | `Installed | `Merged -> Alcotest.fail "equal-weight displacement must be rejected");
  Alcotest.(check bool) "both replicas kept" true (Server.hosts s 20 && Server.hosts s 21);
  (* once a victim is clearly colder (2x margin), displacement proceeds *)
  Ranking.seed s.Server.ranking 20 0.5;
  (match Server.install_replica s (payload_for 22) ~now:3.0 with
  | `Installed -> ()
  | `Merged | `Rejected -> Alcotest.fail "dominated victim must be displaced");
  Alcotest.(check bool) "cold victim gone" false (Server.hosts s 20);
  Invariant.assert_server s ~now:3.0

let test_install_rejected_when_no_budget () =
  let cfg = { config with Config.r_fact = 0.0 } in
  let s = owned_server ~cfg [ 1 ] in
  match Server.install_replica s (payload_for 20) ~now:1.0 with
  | `Rejected -> Alcotest.(check int) "nothing hosted" 0 s.Server.replica_count
  | `Installed | `Merged -> Alcotest.fail "expected rejection"

let test_evict_replica_refcounts () =
  let s = owned_server [ 5 ] in
  (* node 5's neighbors: 2 (parent), 11, 12. Install replica of 2 — shares
     neighbor 5... (2's neighbors are 0, 5, 6). *)
  ignore (Server.install_replica s (payload_for 2) ~now:1.0);
  Invariant.assert_server s ~now:1.0;
  Server.evict_replica s 2;
  Alcotest.(check bool) "gone" false (Server.hosts s 2);
  Invariant.assert_server s ~now:1.0;
  (* original owned context intact *)
  List.iter
    (fun nb ->
      Alcotest.(check bool) "context kept" true
        (Server.hosts s nb || Intmap.mem s.Server.neighbor_maps nb))
    (Tree.neighbors tree 5);
  Alcotest.check_raises "evicting owned"
    (Invalid_argument "Server.evict_replica: node is owned, not a replica") (fun () ->
      Server.evict_replica s 5);
  Alcotest.check_raises "evicting absent" (Invalid_argument "Server.evict_replica: node not hosted")
    (fun () -> Server.evict_replica s 2)

let test_idle_scan () =
  let cfg = { config with Config.replica_idle_timeout = 60.0 } in
  let s = owned_server ~cfg [ 1 ] in
  ignore (Server.install_replica s (payload_for 20) ~now:0.0);
  ignore (Server.install_replica s (payload_for 21) ~now:0.0);
  Server.touch_node s 21 ~now:50.0;
  let evicted = Server.idle_scan s ~now:70.0 in
  (* idle timeout set to 60 s: replica 20 unused since 0.0 goes, 21 stays. *)
  Alcotest.(check (list int)) "idle replica evicted" [ 20 ] evicted;
  Alcotest.(check bool) "active replica kept" true (Server.hosts s 21);
  Invariant.assert_server s ~now:70.0;
  (* nothing else is stale yet under the same timeout *)
  Alcotest.(check (list int)) "second scan idle" [] (Server.idle_scan s ~now:80.0)

let test_known_map_priority () =
  let s = owned_server [ 5 ] in
  (* hosted beats neighbor beats cache *)
  (match Server.known_map s 5 with
  | Some m -> Alcotest.(check bool) "hosted map has self" true (Node_map.mem m 0)
  | None -> Alcotest.fail "hosted map");
  (match Server.known_map s 2 with
  | Some m -> Alcotest.(check bool) "neighbor map has owner" true (Node_map.mem m (owner_of 2))
  | None -> Alcotest.fail "neighbor map");
  Alcotest.(check bool) "unknown node" true (Server.known_map s 30 = None);
  Cache.insert s.Server.cache ~node:30 (Node_map.singleton ~server:3 ~stamp:1.0 ());
  Alcotest.(check bool) "cached map found" true (Server.known_map s 30 <> None)

let test_merge_into_known_map_routes () =
  let s = owned_server [ 5 ] in
  let incoming = Node_map.singleton ~server:7 ~stamp:9.0 () in
  (* hosted *)
  Server.merge_into_known_map s 5 incoming ~now:9.0;
  (match Server.find_hosted s 5 with
  | Some h ->
    Alcotest.(check bool) "merged into hosted" true (Node_map.mem h.Server.h_map 7);
    Alcotest.(check bool) "self still pinned" true (Node_map.mem h.Server.h_map 0)
  | None -> Alcotest.fail "hosted");
  (* neighbor *)
  Server.merge_into_known_map s 2 incoming ~now:9.0;
  Alcotest.(check bool) "neighbor map" true (Intmap.mem s.Server.neighbor_maps 2);
  Alcotest.(check bool) "merged into neighbor" true (Node_map.mem (Server.neighbor_map s 2) 7);
  (* neither → cache (caching on) *)
  Server.merge_into_known_map s 30 incoming ~now:9.0;
  Alcotest.(check bool) "cached" true (Cache.peek s.Server.cache ~node:30 <> None)

let test_merge_into_known_map_no_cache_when_disabled () =
  let cfg = { config with Config.features = Config.base } in
  let s = owned_server ~cfg [ 5 ] in
  Server.merge_into_known_map s 30 (Node_map.singleton ~server:7 ~stamp:9.0 ()) ~now:9.0;
  Alcotest.(check int) "not cached" 0 (Cache.length s.Server.cache)

let test_peer_loads () =
  let s = mk_server () in
  Server.note_peer_load s 3 0.5;
  Server.note_peer_load s 4 0.2;
  Server.note_peer_load s 5 0.9;
  Server.note_peer_load s 0 0.0 (* self: ignored *);
  (match Server.min_load_peer s ~exclude:[] with
  | Some (peer, load) ->
    Alcotest.(check int) "min peer" 4 peer;
    Alcotest.(check (float 1e-9)) "min load" 0.2 load
  | None -> Alcotest.fail "expected peer");
  (match Server.min_load_peer s ~exclude:[ 4 ] with
  | Some (peer, _) -> Alcotest.(check int) "exclusion" 3 peer
  | None -> Alcotest.fail "expected peer");
  Server.forget_peer s 3;
  (match Server.min_load_peer s ~exclude:[ 4 ] with
  | Some (peer, _) -> Alcotest.(check int) "after forget" 5 peer
  | None -> Alcotest.fail "expected peer");
  Alcotest.(check bool) "all excluded" true (Server.min_load_peer s ~exclude:[ 4; 5 ] = None)

let test_forget_server () =
  let s = owned_server [ 5 ] in
  ignore (Server.install_replica s (payload_for 20) ~now:1.0);
  (* hosted map *)
  Server.forget_server s 20 (owner_of 20);
  (match Server.find_hosted s 20 with
  | Some h -> Alcotest.(check bool) "owner dropped from hosted map" false (Node_map.mem h.Server.h_map (owner_of 20))
  | None -> Alcotest.fail "hosted");
  (* neighbor map *)
  Server.forget_server s 2 (owner_of 2);
  Alcotest.(check bool) "neighbor" true (Intmap.mem s.Server.neighbor_maps 2);
  Alcotest.(check bool) "dropped from neighbor map" false
    (Node_map.mem (Server.neighbor_map s 2) (owner_of 2));
  (* cached map: emptying it drops the entry *)
  Cache.insert s.Server.cache ~node:30 (Node_map.singleton ~server:3 ~stamp:1.0 ());
  Server.forget_server s 30 3;
  Alcotest.(check bool) "cache entry dropped when emptied" true
    (Cache.peek s.Server.cache ~node:30 = None)

let test_make_replica_payload () =
  let s = owned_server [ 5 ] in
  Server.touch_node s 5 ~now:0.1;
  Server.touch_node s 5 ~now:0.1;
  (match Server.make_replica_payload s 5 with
  | Some p ->
    Alcotest.(check int) "node" 5 p.rp_node;
    Alcotest.(check int) "full context" (List.length (Tree.neighbors tree 5))
      (List.length p.rp_context);
    List.iter
      (fun (_, m) -> Alcotest.(check bool) "context maps non-empty" false (Node_map.is_empty m))
      p.rp_context;
    Alcotest.(check (float 1e-9)) "weight hint is half" 1.0 p.rp_weight_hint
  | None -> Alcotest.fail "expected payload");
  Alcotest.(check bool) "absent node" true (Server.make_replica_payload s 9 = None)

let test_record_new_replica_advertised () =
  let s = owned_server [ 5 ] in
  Server.record_new_replica s 5 6 ~now:2.0;
  match Server.find_hosted s 5 with
  | Some h ->
    Alcotest.(check bool) "new replica in map" true (Node_map.mem h.Server.h_map 6);
    Alcotest.(check bool) "self retained" true (Node_map.mem h.Server.h_map 0)
  | None -> Alcotest.fail "hosted"

let test_state_kinds () =
  let s = owned_server [ 5 ] in
  ignore (Server.install_replica s (payload_for 20) ~now:1.0);
  Cache.insert s.Server.cache ~node:30 (Node_map.singleton ~server:3 ~stamp:1.0 ());
  let kinds = Server.state_kinds s in
  let kind_of n = List.assoc_opt n kinds in
  Alcotest.(check (option string)) "owned" (Some "Owned") (kind_of 5);
  Alcotest.(check (option string)) "replicated" (Some "Replicated") (kind_of 20);
  Alcotest.(check (option string)) "neighboring" (Some "Neighboring") (kind_of 2);
  Alcotest.(check (option string)) "cached" (Some "Cached") (kind_of 30)

(* Property: random sequences of installs/evictions/touches keep every
   internal invariant. *)
let prop_random_ops_keep_invariants =
  QCheck.Test.make ~name:"server: random op sequences preserve invariants" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (pair (int_bound 2) (int_bound 30)))
    (fun ops ->
      let s = owned_server [ 1; 14 ] in
      let now = ref 1.0 in
      List.iter
        (fun (op, node) ->
          now := !now +. 0.25;
          match op with
          | 0 -> ignore (Server.install_replica s (payload_for node) ~now:!now)
          | 1 -> if List.mem node (Server.replica_nodes s) then Server.evict_replica s node
          | _ -> if Server.hosts s node then Server.touch_node s node ~now:!now)
        ops;
      Invariant.assert_server s ~now:!now;
      true)

let () =
  Alcotest.run "terradir_server"
    [
      ( "server",
        [
          Alcotest.test_case "add owned" `Quick test_add_owned;
          Alcotest.test_case "digest covers hosted" `Quick test_digest_covers_hosted;
          Alcotest.test_case "install replica" `Quick test_install_replica;
          Alcotest.test_case "install merge" `Quick test_install_replica_merge;
          Alcotest.test_case "budget eviction" `Quick test_replica_budget_eviction;
          Alcotest.test_case "displacement dominance" `Quick test_displacement_needs_dominance;
          Alcotest.test_case "install rejected" `Quick test_install_rejected_when_no_budget;
          Alcotest.test_case "evict refcounts" `Quick test_evict_replica_refcounts;
          Alcotest.test_case "idle scan" `Quick test_idle_scan;
          Alcotest.test_case "known map priority" `Quick test_known_map_priority;
          Alcotest.test_case "merge into known map" `Quick test_merge_into_known_map_routes;
          Alcotest.test_case "no cache when disabled" `Quick test_merge_into_known_map_no_cache_when_disabled;
          Alcotest.test_case "peer loads" `Quick test_peer_loads;
          Alcotest.test_case "forget server" `Quick test_forget_server;
          Alcotest.test_case "replica payload" `Quick test_make_replica_payload;
          Alcotest.test_case "advertise new replica" `Quick test_record_new_replica_advertised;
          Alcotest.test_case "state kinds" `Quick test_state_kinds;
        ] );
      ( "server-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_random_ops_keep_invariants ] );
    ]
