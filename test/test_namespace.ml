(* Tests for hierarchical names, interned trees and namespace generators. *)

open Terradir_namespace

let name = Alcotest.testable Name.pp Name.equal

(* ------------------------------------------------------------------ *)
(* Name                                                                *)
(* ------------------------------------------------------------------ *)

let test_name_parse_print () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Name.to_string (Name.of_string input)))
    [
      ("/university/private", "/university/private");
      ("university/private", "/university/private");
      ("//a///b/", "/a/b");
      ("/", "/");
      ("", "/");
    ]

let test_name_components () =
  let n = Name.of_string "/a/b/c" in
  Alcotest.(check (list string)) "components" [ "a"; "b"; "c" ] (Name.components n);
  Alcotest.(check int) "depth" 3 (Name.depth n);
  Alcotest.(check int) "root depth" 0 (Name.depth Name.root)

let test_name_child_parent () =
  let n = Name.of_string "/a/b" in
  Alcotest.check name "child" (Name.of_string "/a/b/c") (Name.child n "c");
  Alcotest.check (Alcotest.option name) "parent" (Some (Name.of_string "/a")) (Name.parent n);
  Alcotest.check (Alcotest.option name) "root parent" None (Name.parent Name.root);
  Alcotest.(check (option string)) "basename" (Some "b") (Name.basename n);
  Alcotest.(check (option string)) "root basename" None (Name.basename Name.root);
  Alcotest.check_raises "bad component" (Invalid_argument "Name: component contains '/'")
    (fun () -> ignore (Name.child n "x/y"));
  Alcotest.check_raises "empty component" (Invalid_argument "Name: empty component") (fun () ->
      ignore (Name.of_components [ "a"; "" ]))

let test_name_ancestors () =
  let n = Name.of_string "/a/b/c" in
  Alcotest.(check (list string)) "nearest first"
    [ "/a/b"; "/a"; "/" ]
    (List.map Name.to_string (Name.ancestors n));
  Alcotest.(check (list string)) "root has none" [] (List.map Name.to_string (Name.ancestors Name.root))

let test_name_is_ancestor () =
  let check a b expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s ancestor of %s" a b)
      expected
      (Name.is_ancestor (Name.of_string a) (Name.of_string b))
  in
  check "/" "/a/b" true;
  check "/a" "/a/b" true;
  check "/a/b" "/a/b" true;
  check "/a/b" "/a" false;
  check "/a" "/ab" false

let test_name_lca_distance () =
  let lca a b = Name.to_string (Name.lowest_common_ancestor (Name.of_string a) (Name.of_string b)) in
  Alcotest.(check string) "lca siblings" "/a" (lca "/a/b" "/a/c");
  Alcotest.(check string) "lca disjoint" "/" (lca "/a/b" "/c");
  Alcotest.(check string) "lca nested" "/a/b" (lca "/a/b" "/a/b/c/d");
  let dist a b = Name.distance (Name.of_string a) (Name.of_string b) in
  (* The paper's example: /u/private from /u/public/people/students/Lisa. *)
  Alcotest.(check int) "paper example" 4 (dist "/u/public/people/students" "/u/private");
  Alcotest.(check int) "self" 0 (dist "/a/b" "/a/b");
  Alcotest.(check int) "parent" 1 (dist "/a/b" "/a")

let name_gen =
  QCheck.Gen.(
    map
      (fun parts -> Name.of_components (List.map (fun i -> string_of_int i) parts))
      (list_size (int_bound 6) (int_bound 3)))

let arb_name = QCheck.make ~print:Name.to_string name_gen

let prop_name_roundtrip =
  QCheck.Test.make ~name:"name: of_string/to_string roundtrip" ~count:300 arb_name (fun n ->
      Name.equal n (Name.of_string (Name.to_string n)))

let prop_distance_metric =
  QCheck.Test.make ~name:"name: distance is a metric (tree metric axioms)" ~count:300
    QCheck.(triple arb_name arb_name arb_name)
    (fun (a, b, c) ->
      let d = Name.distance in
      d a b = d b a
      && d a b >= 0
      && (d a b = 0) = Name.equal a b
      && d a c <= d a b + d b c)

let prop_ancestor_distance =
  QCheck.Test.make ~name:"name: ancestors are at their depth difference" ~count:200 arb_name
    (fun n ->
      List.for_all (fun a -> Name.distance n a = Name.depth n - Name.depth a) (Name.ancestors n))

(* ------------------------------------------------------------------ *)
(* Tree                                                                *)
(* ------------------------------------------------------------------ *)

let sample_tree () =
  (* The paper's Fig. 1 namespace. *)
  Build.of_paths
    [
      "/university/public/people/faculty/John";
      "/university/public/people/faculty/Steve";
      "/university/public/people/staff";
      "/university/public/people/students/Ann";
      "/university/private/people/students/Lisa";
      "/university/private/people/students/Mary";
    ]

let test_tree_build_find () =
  let t = sample_tree () in
  Tree.check_invariants t;
  Alcotest.(check int) "size" 15 (Tree.size t);
  (match Tree.find_string t "/university/public/people" with
  | Some v ->
    Alcotest.(check string) "roundtrip" "/university/public/people" (Tree.name_string t v);
    Alcotest.(check int) "depth" 3 (Tree.depth t v)
  | None -> Alcotest.fail "expected to find node");
  Alcotest.(check bool) "missing" true (Tree.find_string t "/university/nope" = None)

let test_tree_structure () =
  let t = sample_tree () in
  let id s = Option.get (Tree.find_string t s) in
  Alcotest.(check (option int)) "parent" (Some (id "/university/public"))
    (Tree.parent t (id "/university/public/people"));
  Alcotest.(check (option int)) "root parent" None (Tree.parent t Tree.root);
  Alcotest.(check int) "children of people(public)" 3
    (Tree.num_children t (id "/university/public/people"));
  let nb = Tree.neighbors t (id "/university/public/people") in
  Alcotest.(check int) "neighbors = parent + children" 4 (List.length nb);
  Alcotest.(check int) "root neighbors = children" 1 (List.length (Tree.neighbors t Tree.root))

let test_tree_lca_distance_route () =
  let t = sample_tree () in
  let id s = Option.get (Tree.find_string t s) in
  let lisa = id "/university/private/people/students/Lisa" in
  let john = id "/university/public/people/faculty/John" in
  Alcotest.(check int) "lca is root child" (id "/university") (Tree.lca t lisa john);
  Alcotest.(check int) "distance" 8 (Tree.distance t lisa john)

let test_tree_ancestor_ops () =
  let t = sample_tree () in
  let id s = Option.get (Tree.find_string t s) in
  let lisa = id "/university/private/people/students/Lisa" in
  Alcotest.(check bool) "root ancestor" true (Tree.is_ancestor t Tree.root lisa);
  Alcotest.(check bool) "self ancestor" true (Tree.is_ancestor t lisa lisa);
  Alcotest.(check bool) "not ancestor" false
    (Tree.is_ancestor t (id "/university/public") lisa);
  Alcotest.(check int) "ancestor at depth 2" (id "/university/private")
    (Tree.ancestor_at_depth t lisa 2);
  Alcotest.check_raises "too deep" (Invalid_argument "Tree.ancestor_at_depth: bad depth")
    (fun () -> ignore (Tree.ancestor_at_depth t lisa 9))

let test_tree_levels_leaves () =
  let t = sample_tree () in
  Alcotest.(check (array int)) "level sizes" [| 1; 1; 2; 2; 4; 5 |] (Tree.level_sizes t);
  Alcotest.(check int) "max depth" 5 (Tree.max_depth t);
  Alcotest.(check int) "leaves" 6 (List.length (Tree.leaves t))

let test_builder_validation () =
  let b = Tree.Builder.create () in
  let child = Tree.Builder.add_child b Tree.root "a" in
  Alcotest.(check int) "ids dense" 1 child;
  Alcotest.check_raises "duplicate" (Invalid_argument "Tree.Builder.add_child: duplicate child")
    (fun () -> ignore (Tree.Builder.add_child b Tree.root "a"));
  Alcotest.check_raises "bad parent" (Invalid_argument "Tree.Builder.add_child: bad parent id")
    (fun () -> ignore (Tree.Builder.add_child b 99 "x"));
  let t = Tree.Builder.freeze b in
  Tree.check_invariants t;
  Alcotest.check_raises "sealed" (Invalid_argument "Tree.Builder.add_child: builder is sealed")
    (fun () -> ignore (Tree.Builder.add_child b Tree.root "z"))

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

let test_balanced () =
  let t = Build.balanced ~arity:2 ~levels:5 in
  Tree.check_invariants t;
  Alcotest.(check int) "node count" 63 (Tree.size t);
  Alcotest.(check int) "count helper" 63 (Build.balanced_node_count ~arity:2 ~levels:5);
  Alcotest.(check int) "max depth" 5 (Tree.max_depth t);
  Tree.iter t (fun v ->
      let kids = Tree.num_children t v in
      if Tree.depth t v < 5 then Alcotest.(check int) "internal arity" 2 kids
      else Alcotest.(check int) "leaf" 0 kids)

let test_balanced_ternary_and_unary () =
  let t3 = Build.balanced ~arity:3 ~levels:3 in
  Alcotest.(check int) "ternary count" 40 (Tree.size t3);
  let t1 = Build.balanced ~arity:1 ~levels:4 in
  Alcotest.(check int) "unary chain" 5 (Tree.size t1);
  Alcotest.(check int) "unary depth" 4 (Tree.max_depth t1)

let test_coda_like_shape () =
  let t = Build.coda_like ~target:12_000 () in
  Tree.check_invariants t;
  Alcotest.(check int) "hits target" 12_000 (Tree.size t);
  Alcotest.(check bool) "deep enough" true (Tree.max_depth t >= 8);
  let leaves = List.length (Tree.leaves t) in
  Alcotest.(check bool) "mostly leaves" true (float_of_int leaves > 0.5 *. 12_000.0);
  (* Irregular fan-out: max far above mean. *)
  let max_fan = Tree.fold t ~init:0 ~f:(fun acc v -> max acc (Tree.num_children t v)) in
  Alcotest.(check bool) "heavy-tailed fanout" true (max_fan >= 20)

let test_coda_like_deterministic () =
  let a = Build.coda_like ~seed:7 ~target:2000 () in
  let b = Build.coda_like ~seed:7 ~target:2000 () in
  Alcotest.(check int) "same size" (Tree.size a) (Tree.size b);
  Tree.iter a (fun v ->
      Alcotest.(check string) "same names" (Tree.name_string a v) (Tree.name_string b v));
  let c = Build.coda_like ~seed:8 ~target:2000 () in
  let differs =
    Tree.fold a ~init:false ~f:(fun acc v ->
        acc || v >= Tree.size c || Tree.name_string a v <> Tree.name_string c v)
  in
  Alcotest.(check bool) "different seeds differ" true differs

let test_of_paths_dedup () =
  let t = Build.of_paths [ "/x/y"; "/x/y"; "/x/z" ] in
  Alcotest.(check int) "shared prefixes interned once" 4 (Tree.size t)

(* ------------------------------------------------------------------ *)
(* Preorder spans vs the lift walk                                     *)
(* ------------------------------------------------------------------ *)

(* The parent-chain algorithms [Tree] used before it recorded preorder
   spans, kept as the reference the span-based versions must agree with. *)
module Lift_ref = struct
  let parent t v = match Tree.parent t v with Some p -> p | None -> -1

  let rec lift t v d = if Tree.depth t v > d then lift t (parent t v) d else v

  let lca t a b =
    let d = min (Tree.depth t a) (Tree.depth t b) in
    let rec go a b = if a = b then a else go (parent t a) (parent t b) in
    go (lift t a d) (lift t b d)

  let is_ancestor t a b = Tree.depth t a <= Tree.depth t b && lift t b (Tree.depth t a) = a

  let distance t a b = Tree.depth t a + Tree.depth t b - (2 * Tree.depth t (lca t a b))
end

let span_trees =
  lazy
    [|
      Build.balanced ~arity:1 ~levels:12;
      Build.balanced ~arity:2 ~levels:7;
      Build.balanced ~arity:3 ~levels:5;
      Build.balanced ~arity:4 ~levels:4;
      Build.coda_like ~seed:3 ~target:600 ();
      sample_tree ();
    |]

(* One anchor shared by every check below, so it is constantly re-aimed
   across trees and destinations — a stale path would show up as a wrong
   distance. *)
let shared_anchor = Tree.anchor ()

(* Every span-based answer for the pair (a, b) of [t], and every anchored
   answer with [b] as the destination, against the lift walk. *)
let spans_agree t a b =
  Tree.check_invariants t;
  let depth_b = Tree.depth t b in
  Tree.anchor_at t shared_anchor b;
  Tree.is_ancestor t a b = Lift_ref.is_ancestor t a b
  && Tree.is_ancestor t b a = Lift_ref.is_ancestor t b a
  && Tree.lca t a b = Lift_ref.lca t a b
  && Tree.distance t a b = Lift_ref.distance t a b
  && Tree.anchored_distance t shared_anchor a = Lift_ref.distance t a b
  && Tree.anchored_distance t shared_anchor b = 0
  && Tree.anchored_distance t shared_anchor Tree.root = depth_b
  && List.for_all
       (fun d ->
         Tree.anchored_ancestor t shared_anchor d = Lift_ref.lift t b d
         && Tree.ancestor_at_depth t b d = Lift_ref.lift t b d)
       (List.init (depth_b + 1) Fun.id)

let test_spans_exhaustive_small () =
  List.iter
    (fun t ->
      Tree.iter t (fun a ->
          Tree.iter t (fun b ->
              if not (spans_agree t a b) then
                Alcotest.failf "spans disagree with the lift walk on (%s, %s)" (Tree.name_string t a)
                  (Tree.name_string t b))))
    [
      Build.balanced ~arity:1 ~levels:6;
      Build.balanced ~arity:2 ~levels:4;
      Build.balanced ~arity:3 ~levels:3;
      Build.balanced ~arity:4 ~levels:3;
      Build.coda_like ~seed:5 ~target:60 ();
      sample_tree ();
    ]

let test_anchor_not_stale_across_trees () =
  (* Node 5 exists in both trees but sits on different root paths: after
     re-aiming at the second tree the anchor must answer for it, and using
     it with the first tree again must fail loudly. *)
  let t1 = Build.balanced ~arity:2 ~levels:5 and t2 = Build.balanced ~arity:4 ~levels:3 in
  let a = Tree.anchor () in
  Tree.anchor_at t1 a 5;
  Tree.iter t1 (fun v ->
      Alcotest.(check int) "first tree" (Lift_ref.distance t1 v 5) (Tree.anchored_distance t1 a v));
  Tree.anchor_at t2 a 5;
  Tree.iter t2 (fun v ->
      Alcotest.(check int) "second tree" (Lift_ref.distance t2 v 5) (Tree.anchored_distance t2 a v));
  Alcotest.check_raises "anchor used with the wrong tree"
    (Invalid_argument "Tree.anchored_distance: anchor belongs to another tree") (fun () ->
      ignore (Tree.anchored_distance t1 a 3));
  (* Same tree, new destination: re-aimed, not served from the old path. *)
  Tree.anchor_at t2 a 20;
  Tree.iter t2 (fun v ->
      Alcotest.(check int) "new destination" (Lift_ref.distance t2 v 20) (Tree.anchored_distance t2 a v))

let prop_spans_match_lift_walk =
  QCheck.Test.make ~name:"tree: span is_ancestor/lca/distance/anchored = lift walk" ~count:500
    QCheck.(triple (int_bound 5) (int_bound 100_000) (int_bound 100_000))
    (fun (which, a, b) ->
      let t = (Lazy.force span_trees).(which) in
      let n = Tree.size t in
      spans_agree t (a mod n) (b mod n))

let prop_tree_distance_equals_name_distance =
  QCheck.Test.make ~name:"tree: interned distance = name-level distance" ~count:100
    QCheck.(pair (int_bound 62) (int_bound 62))
    (fun (a, b) ->
      let t = Build.balanced ~arity:2 ~levels:5 in
      Tree.distance t a b = Name.distance (Tree.name t a) (Tree.name t b))

let () =
  Alcotest.run "terradir_namespace"
    [
      ( "name",
        [
          Alcotest.test_case "parse/print" `Quick test_name_parse_print;
          Alcotest.test_case "components" `Quick test_name_components;
          Alcotest.test_case "child/parent" `Quick test_name_child_parent;
          Alcotest.test_case "ancestors" `Quick test_name_ancestors;
          Alcotest.test_case "is_ancestor" `Quick test_name_is_ancestor;
          Alcotest.test_case "lca/distance" `Quick test_name_lca_distance;
        ] );
      ( "name-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_name_roundtrip; prop_distance_metric; prop_ancestor_distance ] );
      ( "tree",
        [
          Alcotest.test_case "build/find" `Quick test_tree_build_find;
          Alcotest.test_case "structure" `Quick test_tree_structure;
          Alcotest.test_case "lca/distance/route" `Quick test_tree_lca_distance_route;
          Alcotest.test_case "ancestor ops" `Quick test_tree_ancestor_ops;
          Alcotest.test_case "levels/leaves" `Quick test_tree_levels_leaves;
          Alcotest.test_case "builder validation" `Quick test_builder_validation;
          Alcotest.test_case "spans = lift walk, all pairs" `Quick test_spans_exhaustive_small;
          Alcotest.test_case "anchor not stale across trees" `Quick test_anchor_not_stale_across_trees;
        ] );
      ( "build",
        [
          Alcotest.test_case "balanced binary" `Quick test_balanced;
          Alcotest.test_case "balanced other arities" `Quick test_balanced_ternary_and_unary;
          Alcotest.test_case "coda-like shape" `Quick test_coda_like_shape;
          Alcotest.test_case "coda-like deterministic" `Quick test_coda_like_deterministic;
          Alcotest.test_case "of_paths dedup" `Quick test_of_paths_dedup;
        ] );
      ( "tree-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_tree_distance_equals_name_distance;
            prop_spans_match_lift_walk;
          ] );
    ]
