(* Tests for the runtime invariant auditor: each injected corruption must
   be caught by exactly the rule that covers it, a healthy server must
   audit clean, and a full end-to-end experiment must run audit-clean with
   the auditor enabled. *)

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

let owned_server ?(id = 0) nodes =
  let s = Server.create ~id ~config ~tree ~rng:(Splitmix.create (id + 100)) () in
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

let rules_of s ~now =
  let t = Invariant.create () in
  Invariant.check_server t ~now s;
  List.map (fun v -> v.Invariant.v_rule) (Invariant.violations t)

let check_fires name rule rules =
  Alcotest.(check bool) (name ^ ": " ^ rule ^ " fires") true (List.mem rule rules)

let test_clean_server () =
  let s = owned_server [ 1; 6 ] in
  ignore (Server.install_replica s (payload_for 20) ~now:1.0);
  Alcotest.(check (list string)) "no violations" [] (rules_of s ~now:1.0)

(* Rewrite a hosted node's map behind the server's back. *)
let set_hosted_map s node f =
  let i = Intmap.slot s.Server.hosted node in
  Intmap.set_at s.Server.hosted i (f (Intmap.value_at s.Server.hosted i))

let test_oversized_map () =
  let s = owned_server [ 1 ] in
  (* Blow past r_map by constructing the oversized map directly (no mutator
     allows this, which is the point). *)
  let entries =
    List.init (config.Config.r_map + 3) (fun i ->
        { Node_map.server = i; is_owner = i = 0; stamp = 0.5 })
  in
  set_hosted_map s 1 (fun _ -> Node_map.of_entries ~max:1000 entries);
  check_fires "oversized map" "map-bound" (rules_of s ~now:1.0)

let test_replica_over_budget () =
  let s = owned_server [ 1; 6 ] in
  ignore (Server.install_replica s (payload_for 20) ~now:1.0);
  (* Forge the budget away: with no owned nodes, any replica exceeds
     r_fact x 0.  The hosted table still says two owned nodes, so the
     counter cross-check must fire alongside the budget rule. *)
  s.Server.owned_count <- 0;
  let rules = rules_of s ~now:1.0 in
  check_fires "forged owned_count" "replica-bound" rules;
  check_fires "forged owned_count" "count-mismatch" rules

let test_stale_digest () =
  let s = owned_server [ 1; 6 ] in
  Digest_store.rebuild_local s.Server.digests ~hosted:[];
  check_fires "emptied digest" "digest-stale" (rules_of s ~now:1.0)

let test_self_missing () =
  let s = owned_server [ 1 ] in
  set_hosted_map s 1 (fun map -> Node_map.remove map s.Server.id);
  check_fires "self removed from owned map" "self-missing" (rules_of s ~now:1.0)

let test_stamp_future () =
  let s = owned_server [ 1 ] in
  set_hosted_map s 1 (fun map ->
      Node_map.add ~max:config.Config.r_map map { Node_map.server = 3; is_owner = false; stamp = 99.0 });
  check_fires "entry stamped ahead of clock" "stamp-future" (rules_of s ~now:1.0)

let test_context_refs () =
  let s = owned_server [ 1 ] in
  let contexts = s.Server.neighbor_maps in
  (match Intmap.slot contexts 0 with
  | -1 -> Alcotest.fail "expected a neighbor context for node 1's parent"
  | i -> Intmap.set_int_at contexts i (Intmap.int_at contexts i + 7));
  check_fires "forged refcount" "context-refs" (rules_of s ~now:1.0)

let test_cache_empty_map () =
  let s = owned_server [ 1 ] in
  Cache.put_unchecked s.Server.cache ~node:9 Node_map.empty;
  check_fires "empty map cached" "cache-empty-map" (rules_of s ~now:1.0)

let test_hosted_index () =
  let s = owned_server [ 1; 6; 9 ] in
  List.iter (fun n -> ignore (Server.install_replica s (payload_for n) ~now:1.0)) [ 20; 21; 25 ];
  (* 20 sits mid-table, so evicting it moves the last node into its slot. *)
  Server.evict_replica s 20;
  Alcotest.(check (list string)) "swap-remove keeps the index exact" [] (rules_of s ~now:1.0);
  let h = s.Server.hosted in
  Alcotest.(check (list int)) "dense keys list the hosted set" (Server.hosted_nodes s)
    (List.sort Int.compare (List.init (Intmap.length h) (Intmap.key_at h)));
  (* Swap two dense keys behind the index's back: each now resolves to
     the other's slot. *)
  let k0 = Intmap.key_at h 0 and k1 = Intmap.key_at h 1 in
  Intmap.set_key_unchecked h 0 k1;
  Intmap.set_key_unchecked h 1 k0;
  check_fires "swapped keys" "table-index" (rules_of s ~now:1.0);
  (* A dense key the index has never seen resolves to no slot. *)
  let s = owned_server [ 1; 6 ] in
  Intmap.set_key_unchecked s.Server.hosted 1 30;
  check_fires "forged key" "table-index" (rules_of s ~now:1.0);
  (* The rule covers every server table, neighbor contexts included.
     Node 29's probe path meets an empty cell before slot 0's. *)
  let s = owned_server [ 1; 6 ] in
  Intmap.set_key_unchecked s.Server.neighbor_maps 0 29;
  check_fires "forged context key" "table-index" (rules_of s ~now:1.0)

let test_clock_regression () =
  let t = Invariant.create () in
  Invariant.check_cluster t ~now:5.0 ~next_event:None ~servers:[||] ~owner_of:[||];
  Invariant.check_cluster t ~now:1.0 ~next_event:(Some 0.5) ~servers:[||] ~owner_of:[||];
  let rules = List.map (fun v -> v.Invariant.v_rule) (Invariant.violations t) in
  check_fires "clock moved backwards" "clock-regression" rules;
  check_fires "pending event in the past" "event-queue-order" rules

let test_deliver_raises_and_resets () =
  let t = Invariant.create () in
  let s = owned_server [ 1 ] in
  Digest_store.rebuild_local s.Server.digests ~hosted:[];
  Invariant.check_server t ~now:1.0 s;
  Alcotest.(check bool) "collected" true (Invariant.total_violations t > 0);
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match Invariant.deliver t ~label:"unit" with
  | () -> Alcotest.fail "expected Audit_failure"
  | exception Invariant.Audit_failure msg ->
    Alcotest.(check bool) "report names the rule" true (contains msg "digest-stale"));
  (* Delivery resets the collector: a second deliver is a no-op. *)
  Alcotest.(check int) "reset" 0 (Invariant.total_violations t);
  Invariant.deliver t ~label:"unit"

(* End to end: a real experiment figure runs audit-clean with the auditor
   on (the suite exports TERRADIR_AUDIT=1, so every run_until inside
   already ends with a raising audit pass — reaching this assertion at
   all means no violation was found over the whole run). *)
let test_fig3_audit_clean () =
  Terradir_experiments.Runner.set_jobs (Some 1);
  let r = Terradir_experiments.Fig3.run ~scale:0.002 ~duration:90.0 ~seed:42 () in
  Alcotest.(check bool) "produced series" true (List.length r.Terradir_experiments.Fig3.series > 0)

let () =
  Alcotest.run "terradir_invariant"
    [
      ( "auditor",
        [
          Alcotest.test_case "clean server" `Quick test_clean_server;
          Alcotest.test_case "oversized map" `Quick test_oversized_map;
          Alcotest.test_case "replica over budget" `Quick test_replica_over_budget;
          Alcotest.test_case "stale digest" `Quick test_stale_digest;
          Alcotest.test_case "self missing" `Quick test_self_missing;
          Alcotest.test_case "stamp future" `Quick test_stamp_future;
          Alcotest.test_case "context refs" `Quick test_context_refs;
          Alcotest.test_case "cache empty map" `Quick test_cache_empty_map;
          Alcotest.test_case "hosted index" `Quick test_hosted_index;
          Alcotest.test_case "clock regression" `Quick test_clock_regression;
          Alcotest.test_case "deliver raises and resets" `Quick test_deliver_raises_and_resets;
        ] );
      ("end-to-end", [ Alcotest.test_case "fig3 audit clean" `Quick test_fig3_audit_clean ]);
    ]
