(* Tests for the per-server node cache (§2.4 semantics). *)

open Terradir_util
open Terradir

let mk ?(slots = 4) () = Cache.create ~slots ~r_map:4 ~rng:(Splitmix.create 5) ()

let map1 server = Node_map.singleton ~server ~stamp:1.0 ()

let test_insert_use () =
  let c = mk () in
  Cache.insert c ~node:10 (map1 1);
  (match Cache.use c ~node:10 with
  | Some m -> Alcotest.(check bool) "map present" true (Node_map.mem m 1)
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check (option Alcotest.reject)) "miss"
    None
    (Option.map (fun _ -> assert false) (Cache.use c ~node:99));
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

let test_insert_merges () =
  let c = mk () in
  Cache.insert c ~node:10 (map1 1);
  Cache.insert c ~node:10 (map1 2);
  match Cache.peek c ~node:10 with
  | Some m ->
    Alcotest.(check bool) "both servers" true (Node_map.mem m 1 && Node_map.mem m 2);
    Alcotest.(check int) "one entry" 1 (Cache.length c)
  | None -> Alcotest.fail "expected entry"

let test_insert_empty_ignored () =
  let c = mk () in
  Cache.insert c ~node:10 Node_map.empty;
  Alcotest.(check int) "empty maps not cached" 0 (Cache.length c)

let test_lru_touch_on_use () =
  let c = mk ~slots:2 () in
  Cache.insert c ~node:1 (map1 1);
  Cache.insert c ~node:2 (map1 2);
  ignore (Cache.use c ~node:1);
  (* 2 is now LRU *)
  Cache.insert c ~node:3 (map1 3);
  Alcotest.(check bool) "2 evicted" true (Cache.peek c ~node:2 = None);
  Alcotest.(check bool) "1 kept (touched)" true (Cache.peek c ~node:1 <> None)

let test_peek_does_not_promote () =
  let c = mk ~slots:2 () in
  Cache.insert c ~node:1 (map1 1);
  Cache.insert c ~node:2 (map1 2);
  ignore (Cache.peek c ~node:1);
  Cache.insert c ~node:3 (map1 3);
  Alcotest.(check bool) "1 evicted despite peek" true (Cache.peek c ~node:1 = None)

let test_update_prune () =
  let c = mk () in
  Cache.insert c ~node:5 (Node_map.of_entries ~max:4 [ { Node_map.server = 1; is_owner = false; stamp = 1.0 }; { Node_map.server = 2; is_owner = false; stamp = 2.0 } ]);
  Cache.update c ~node:5 ~f:(fun m -> Node_map.remove m 1);
  (match Cache.peek c ~node:5 with
  | Some m -> Alcotest.(check (list int)) "pruned" [ 2 ] (Node_map.servers m)
  | None -> Alcotest.fail "entry expected");
  (* pruning away everything drops the entry *)
  Cache.update c ~node:5 ~f:(fun m -> Node_map.remove m 2);
  Alcotest.(check bool) "empty entry dropped" true (Cache.peek c ~node:5 = None);
  Cache.update c ~node:404 ~f:(fun m -> m);
  (* absent: no-op *)
  (* a rewrite promotes: in a 2-slot cache, updating the older entry makes
     the other one the eviction victim *)
  let c = mk ~slots:2 () in
  Cache.insert c ~node:1 (map1 1);
  Cache.insert c ~node:2 (map1 2);
  Cache.update c ~node:1 ~f:(fun m ->
      Node_map.add ~max:4 m { Node_map.server = 7; is_owner = false; stamp = 2.0 });
  Cache.insert c ~node:3 (map1 3);
  Alcotest.(check bool) "2 evicted" true (Cache.peek c ~node:2 = None);
  Alcotest.(check bool) "1 kept (updated)" true (Cache.peek c ~node:1 <> None)

let test_disabled_cache () =
  let c = mk ~slots:0 () in
  Cache.insert c ~node:1 (map1 1);
  Alcotest.(check int) "nothing stored" 0 (Cache.length c);
  Alcotest.(check bool) "no hit" true (Cache.use c ~node:1 = None)

let test_remove_and_iter () =
  let c = mk () in
  List.iter (fun n -> Cache.insert c ~node:n (map1 n)) [ 1; 2; 3 ];
  Cache.update c ~node:2 ~f:(fun _ -> Node_map.empty);
  let seen = ref [] in
  Cache.iter c ~f:(fun node _ -> seen := node :: !seen);
  Alcotest.(check (list int)) "iter after remove" [ 1; 3 ] (List.sort compare !seen)

let prop_capacity =
  QCheck.Test.make ~name:"cache: length never exceeds slots" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_bound 30)))
    (fun (slots, nodes) ->
      let c = mk ~slots () in
      List.iter (fun n -> Cache.insert c ~node:n (map1 n)) nodes;
      Cache.length c <= slots)

let prop_maps_bounded =
  QCheck.Test.make ~name:"cache: stored maps respect r_map" ~count:200
    QCheck.(small_list (pair (int_bound 3) (int_bound 20)))
    (fun inserts ->
      let c = mk () in
      List.iter (fun (node, server) -> Cache.insert c ~node (map1 server)) inserts;
      let ok = ref true in
      Cache.iter c ~f:(fun _ m -> if Node_map.size m > 4 then ok := false);
      !ok)

let () =
  Alcotest.run "terradir_cache"
    [
      ( "cache",
        [
          Alcotest.test_case "insert/use" `Quick test_insert_use;
          Alcotest.test_case "insert merges" `Quick test_insert_merges;
          Alcotest.test_case "empty ignored" `Quick test_insert_empty_ignored;
          Alcotest.test_case "lru touch" `Quick test_lru_touch_on_use;
          Alcotest.test_case "peek no promote" `Quick test_peek_does_not_promote;
          Alcotest.test_case "update/prune" `Quick test_update_prune;
          Alcotest.test_case "disabled" `Quick test_disabled_cache;
          Alcotest.test_case "remove/iter" `Quick test_remove_and_iter;
        ] );
      ( "cache-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_capacity; prop_maps_bounded ] );
    ]
