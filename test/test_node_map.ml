(* Tests for node maps (§3.7 policies). *)

open Terradir_util
open Terradir

let entry ?(owner = false) server stamp = { Node_map.server; is_owner = owner; stamp }

let servers_of m = List.sort compare (Node_map.servers m)

let test_empty_singleton () =
  Alcotest.(check bool) "empty" true (Node_map.is_empty Node_map.empty);
  let m = Node_map.singleton ~is_owner:true ~server:7 ~stamp:1.0 () in
  Alcotest.(check int) "size" 1 (Node_map.size m);
  Alcotest.(check (option int)) "owner" (Some 7) (Node_map.owner m);
  Alcotest.(check bool) "mem" true (Node_map.mem m 7);
  Alcotest.(check bool) "not mem" false (Node_map.mem m 8)

let test_dedup_newest_wins () =
  let m = Node_map.of_entries ~max:4 [ entry 1 5.0; entry 1 9.0; entry ~owner:true 1 2.0 ] in
  Alcotest.(check int) "single entry" 1 (Node_map.size m);
  (match Node_map.entries m with
  | [ e ] ->
    Alcotest.(check (float 1e-9)) "newest stamp" 9.0 e.Node_map.stamp;
    Alcotest.(check bool) "owner flag sticky" true e.Node_map.is_owner
  | _ -> Alcotest.fail "expected one entry");
  Alcotest.(check (option int)) "owner found" (Some 1) (Node_map.owner m)

let test_truncation_policy () =
  (* owner always kept; then newest *)
  let m =
    Node_map.of_entries ~max:3
      [ entry 1 1.0; entry 2 2.0; entry 3 3.0; entry 4 4.0; entry ~owner:true 5 0.5 ]
  in
  Alcotest.(check int) "bounded" 3 (Node_map.size m);
  Alcotest.(check bool) "owner kept despite oldest stamp" true (Node_map.mem m 5);
  Alcotest.(check bool) "newest kept" true (Node_map.mem m 4);
  Alcotest.(check bool) "oldest dropped" false (Node_map.mem m 1)

let test_entries_ordering () =
  let m =
    Node_map.of_entries ~max:4 [ entry 2 2.0; entry ~owner:true 9 1.0; entry 3 3.0 ]
  in
  match Node_map.entries m with
  | first :: rest ->
    Alcotest.(check bool) "owner first" true first.Node_map.is_owner;
    Alcotest.(check (list int)) "then newest-first" [ 3; 2 ]
      (List.map (fun e -> e.Node_map.server) rest)
  | [] -> Alcotest.fail "unexpected empty"

let test_add_remove () =
  let m = Node_map.singleton ~is_owner:true ~server:1 ~stamp:1.0 () in
  let m = Node_map.add ~max:2 m (entry 2 2.0) in
  let m = Node_map.add ~max:2 m (entry 3 3.0) in
  Alcotest.(check int) "bounded" 2 (Node_map.size m);
  Alcotest.(check bool) "owner survives" true (Node_map.mem m 1);
  let m = Node_map.remove m 1 in
  Alcotest.(check (option int)) "owner removable explicitly" None (Node_map.owner m)

let test_merge_owner_and_bound () =
  let rng = Splitmix.create 3 in
  let a = Node_map.of_entries ~max:4 [ entry ~owner:true 1 1.0; entry 2 5.0 ] in
  let b = Node_map.of_entries ~max:4 [ entry 3 6.0; entry 4 7.0; entry 5 8.0 ] in
  let m = Node_map.merge ~max:4 rng a b in
  Alcotest.(check int) "bounded" 4 (Node_map.size m);
  Alcotest.(check bool) "owner kept" true (Node_map.mem m 1);
  Alcotest.(check bool) "newest non-owner kept" true (Node_map.mem m 5)

let test_merge_subsumed_physical_reuse () =
  let rng = Splitmix.create 3 in
  let a = Node_map.of_entries ~max:4 [ entry ~owner:true 1 1.0; entry 2 5.0 ] in
  Alcotest.(check bool) "merge with itself returns same value" true
    (Node_map.merge ~max:4 rng a a == a);
  let older = Node_map.of_entries ~max:4 [ entry 2 3.0 ] in
  Alcotest.(check bool) "merge with older subset reuses" true
    (Node_map.merge ~max:4 rng a older == a)

let test_merge_combines_fresh_info () =
  let rng = Splitmix.create 3 in
  let a = Node_map.of_entries ~max:4 [ entry 2 1.0 ] in
  let b = Node_map.of_entries ~max:4 [ entry 2 9.0 ] in
  let m = Node_map.merge ~max:4 rng a b in
  match Node_map.entries m with
  | [ e ] -> Alcotest.(check (float 1e-9)) "stamp refreshed" 9.0 e.Node_map.stamp
  | _ -> Alcotest.fail "expected single entry"

let test_filter_owner_exempt () =
  let m = Node_map.of_entries ~max:4 [ entry ~owner:true 1 1.0; entry 2 2.0; entry 3 3.0 ] in
  let m' = Node_map.filter m ~f:(fun server -> server <> 2) in
  Alcotest.(check (list int)) "2 pruned" [ 1; 3 ] (servers_of m');
  let m'' = Node_map.filter m ~f:(fun _ -> false) in
  Alcotest.(check (list int)) "owner survives filter-all" [ 1 ] (servers_of m'')

let test_random_server () =
  let rng = Splitmix.create 4 in
  let m = Node_map.of_entries ~max:4 [ entry 1 1.0; entry 2 2.0 ] in
  for _ = 1 to 50 do
    match Node_map.random_server ~exclude:1 m rng with
    | Some s -> Alcotest.(check int) "exclusion respected" 2 s
    | None -> Alcotest.fail "expected a server"
  done;
  Alcotest.(check (option int)) "all excluded" None
    (Node_map.random_server ~exclude:1 (Node_map.of_entries ~max:4 [ entry 1 1.0 ]) rng);
  Alcotest.(check (option int)) "empty map" None (Node_map.random_server Node_map.empty rng)

let test_validation () =
  Alcotest.check_raises "of_entries max" (Invalid_argument "Node_map.of_entries: max must be >= 1")
    (fun () -> ignore (Node_map.of_entries ~max:0 []));
  Alcotest.check_raises "merge max" (Invalid_argument "Node_map.merge: max must be >= 1")
    (fun () -> ignore (Node_map.merge ~max:0 (Splitmix.create 1) Node_map.empty Node_map.empty))

let arb_entries =
  QCheck.(
    small_list
      (map
         (fun (s, o, st) -> { Node_map.server = s; is_owner = o; stamp = float_of_int st })
         (triple (int_bound 10) bool (int_bound 100))))

let prop_no_duplicate_servers =
  QCheck.Test.make ~name:"node_map: no duplicate servers after of_entries" ~count:300 arb_entries
    (fun entries ->
      let m = Node_map.of_entries ~max:4 entries in
      let ss = Node_map.servers m in
      List.length ss = List.length (List.sort_uniq compare ss))

let prop_merge_bounded_and_owner_stable =
  QCheck.Test.make ~name:"node_map: merge is bounded and keeps some owner when one exists"
    ~count:300
    QCheck.(pair arb_entries arb_entries)
    (fun (ea, eb) ->
      let rng = Splitmix.create 17 in
      let a = Node_map.of_entries ~max:4 ea and b = Node_map.of_entries ~max:4 eb in
      let m = Node_map.merge ~max:4 rng a b in
      Node_map.size m <= 4
      && (Node_map.owner a = None && Node_map.owner b = None) = (Node_map.owner m = None))

let prop_merge_servers_from_inputs =
  QCheck.Test.make ~name:"node_map: merged entries come from the inputs" ~count:300
    QCheck.(pair arb_entries arb_entries)
    (fun (ea, eb) ->
      let rng = Splitmix.create 23 in
      let a = Node_map.of_entries ~max:4 ea and b = Node_map.of_entries ~max:4 eb in
      let m = Node_map.merge ~max:4 rng a b in
      List.for_all (fun s -> Node_map.mem a s || Node_map.mem b s) (Node_map.servers m))

(* ------------------------------------------------------------------ *)
(* Old-vs-new equivalence                                              *)
(* ------------------------------------------------------------------ *)

(* Reference reimplementation of the pre-optimization sort-based Node_map
   on plain entry lists.  The current single-pass insertion code must
   agree bit-for-bit — including rng consumption in [merge], since the
   random fill feeds back into simulation trajectories. *)
module Reference = struct
  open Node_map

  let order (a : entry) (b : entry) =
    match (b.is_owner, a.is_owner) with
    | true, false -> 1
    | false, true -> -1
    | _ -> (
      match compare (b.stamp : float) a.stamp with
      | 0 -> compare a.server b.server
      | c -> c)

  let dedup entries =
    let combine x e =
      { server = e.server; is_owner = x.is_owner || e.is_owner; stamp = Float.max x.stamp e.stamp }
    in
    let rec add acc e =
      match acc with
      | [] -> [ e ]
      | x :: rest -> if x.server = e.server then combine x e :: rest else x :: add rest e
    in
    List.fold_left add [] entries

  let truncate ~max entries =
    let sorted = List.sort order entries in
    List.filteri (fun i _ -> i < max) sorted

  let of_entries ~max entries = truncate ~max (dedup entries)

  let rec draw rng pool want acc =
    if want <= 0 then acc
    else
      match pool with
      | [] -> acc
      | _ ->
        let i = Splitmix.int rng (List.length pool) in
        let rec split k seen = function
          | [] -> assert false
          | e :: rest ->
            if k = 0 then (e, List.rev_append seen rest) else split (k - 1) (e :: seen) rest
        in
        let e, rest = split i [] pool in
        draw rng rest (want - 1) (e :: acc)

  let subsumes a b =
    List.for_all
      (fun (eb : entry) ->
        List.exists
          (fun (ea : entry) ->
            ea.server = eb.server && ea.stamp >= eb.stamp && (ea.is_owner || not eb.is_owner))
          a)
      b

  let merge ~max rng a b =
    if subsumes a b && List.length a <= max then a
    else begin
      let all = dedup (List.rev_append a b) in
      let owners, rest = List.partition (fun (e : entry) -> e.is_owner) all in
      let owners = truncate ~max owners in
      let slots = max - List.length owners in
      if slots <= 0 then owners
      else begin
        let rest = List.sort order rest in
        let keep_newest = (slots + 1) / 2 in
        let newest = List.filteri (fun i _ -> i < keep_newest) rest in
        let remainder = List.filteri (fun i _ -> i >= keep_newest) rest in
        let filled = draw rng remainder (slots - List.length newest) [] in
        List.sort order (owners @ newest @ filled)
      end
    end
end

let prop_of_entries_matches_reference =
  QCheck.Test.make ~name:"node_map: single-pass of_entries == sort-based reference" ~count:500
    QCheck.(pair (int_range 1 6) arb_entries)
    (fun (max, entries) ->
      Node_map.entries (Node_map.of_entries ~max entries) = Reference.of_entries ~max entries)

let prop_merge_matches_reference =
  QCheck.Test.make
    ~name:"node_map: merge == sort-based reference (result and rng consumption)" ~count:500
    QCheck.(quad (int_range 1 6) arb_entries arb_entries small_nat)
    (fun (max, ea, eb, seed) ->
      let a = Node_map.of_entries ~max ea and b = Node_map.of_entries ~max eb in
      let ra = Reference.of_entries ~max ea and rb = Reference.of_entries ~max eb in
      let rng = Splitmix.create seed and ref_rng = Splitmix.create seed in
      let m = Node_map.merge ~max rng a b in
      let rm = Reference.merge ~max ref_rng ra rb in
      Node_map.entries m = rm
      (* both sides drew the same number of randoms iff the streams agree *)
      && Splitmix.int rng 1_000_000 = Splitmix.int ref_rng 1_000_000)

(* A map keeps each row's packed server/owner and its stamp as floats:
   stamps come back bit for bit (0.0, subnormal and huge ones included),
   and so does the largest server id the packed peer keys allow, through
   construction, add, merge, filter, remove and truncation. *)
let test_stamps_round_trip () =
  let big = (1 lsl 24) - 2 in
  let stamps = [ 0.0; 4.9e-324; 1e-300; 0.1; 123456789.123456789; 2.0 ** 60.0; 1e300; Float.max_float ] in
  let given = List.mapi (fun i stamp -> entry ~owner:(i = 3) (if i = 0 then big else i) stamp) stamps in
  let row e = (e.Node_map.server, e.Node_map.is_owner, Int64.bits_of_float e.Node_map.stamp) in
  let rows es = List.sort compare (List.map row es) in
  let check name expect m = Alcotest.(check (list (triple int bool int64))) name expect (rows (Node_map.entries m)) in
  let expect = rows given in
  let m = Node_map.of_entries ~max:16 given in
  check "of_entries" expect m;
  check "add" expect (List.fold_left (fun m e -> Node_map.add ~max:16 m e) Node_map.empty given);
  let evens, odds = List.partition (fun e -> e.Node_map.server mod 2 = 0) given in
  check "merge" expect
    (Node_map.merge ~max:16 (Splitmix.create 3) (Node_map.of_entries ~max:16 evens)
       (Node_map.of_entries ~max:16 odds));
  check "filter" (List.filter (fun (s, _, _) -> s <> 1) expect) (Node_map.filter m ~f:(fun s -> s <> 1));
  check "remove" (List.filter (fun (s, _, _) -> s <> big) expect) (Node_map.remove m big);
  check "truncate" (rows (List.filteri (fun i _ -> i < 3) (Node_map.entries m))) (Node_map.truncate ~max:3 m)

let () =
  Alcotest.run "terradir_node_map"
    [
      ( "node_map",
        [
          Alcotest.test_case "empty/singleton" `Quick test_empty_singleton;
          Alcotest.test_case "dedup newest wins" `Quick test_dedup_newest_wins;
          Alcotest.test_case "truncation policy" `Quick test_truncation_policy;
          Alcotest.test_case "entries ordering" `Quick test_entries_ordering;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "merge owner+bound" `Quick test_merge_owner_and_bound;
          Alcotest.test_case "merge subsumed reuse" `Quick test_merge_subsumed_physical_reuse;
          Alcotest.test_case "merge freshness" `Quick test_merge_combines_fresh_info;
          Alcotest.test_case "filter owner exempt" `Quick test_filter_owner_exempt;
          Alcotest.test_case "random server" `Quick test_random_server;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "stamps round-trip bit for bit" `Quick test_stamps_round_trip;
        ] );
      ( "node_map-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_no_duplicate_servers;
            prop_merge_bounded_and_owner_stable;
            prop_merge_servers_from_inputs;
            prop_of_entries_matches_reference;
            prop_merge_matches_reference;
          ] );
    ]
