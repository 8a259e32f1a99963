(* Tests for hierarchical names, trees and namespace generators. *)

open Terradir_namespace

(* ------------------------------------------------------------------ *)
(* Names: paths rendered and parsed by a tree                          *)
(* ------------------------------------------------------------------ *)

(* The node at [path], which the test expects to exist. *)
let node t path =
  match Tree.find_string t path with Some v -> v | None -> Alcotest.failf "%s not in the tree" path

let test_name_parse_print () =
  List.iter
    (fun (input, expected) ->
      let t = Build.of_paths [ input ] in
      Alcotest.(check string) input expected (Tree.name_string t (node t input));
      Alcotest.(check string) (input ^ ", found by its rendering") expected
        (Tree.name_string t (node t expected)))
    [
      ("/university/private", "/university/private");
      ("university/private", "/university/private");
      ("//a///b/", "/a/b");
      ("/a/b/", "/a/b");
      ("/", "/");
      ("", "/");
    ];
  Alcotest.(check int) "the root path adds no node" 1 (Tree.size (Build.of_paths [ "/"; ""; "//" ]));
  let t = Build.of_paths [ "/a/b" ] in
  Alcotest.(check (option int)) "absent" None (Tree.find_string t "/a/c");
  Alcotest.(check (option int)) "no partial component" None (Tree.find_string t "/a/bb")

let test_name_components () =
  let t = Build.of_paths [ "/a/b/c" ] in
  let c = node t "/a/b/c" in
  Alcotest.(check (list string)) "one node per component"
    [ "/"; "/a"; "/a/b"; "/a/b/c" ]
    (List.init 4 (fun d -> Tree.name_string t (Tree.ancestor_at_depth t c d)));
  Alcotest.(check int) "depth" 3 (Tree.depth t c);
  Alcotest.(check int) "root depth" 0 (Tree.depth t Tree.root)

let test_name_child_parent () =
  let b = Tree.Builder.create () in
  let a = Tree.Builder.add_child b Tree.root "a" in
  let ab = Tree.Builder.add_child b a "b" in
  let abc = Tree.Builder.add_child b ab "c" in
  let t = Tree.Builder.freeze b in
  Alcotest.(check string) "child" "/a/b/c" (Tree.name_string t abc);
  Alcotest.(check (option int)) "parent" (Some a) (Tree.parent t ab);
  Alcotest.(check (option int)) "root parent" None (Tree.parent t Tree.root);
  let b = Tree.Builder.create () in
  Alcotest.check_raises "bad component" (Invalid_argument "Tree.Builder.add_child: invalid component")
    (fun () -> ignore (Tree.Builder.add_child b Tree.root "x/y"));
  Alcotest.check_raises "empty component" (Invalid_argument "Tree.Builder.add_child: invalid component")
    (fun () -> ignore (Tree.Builder.add_child b Tree.root ""))

let test_name_ancestors () =
  let t = Build.of_paths [ "/a/b/c" ] in
  let c = node t "/a/b/c" in
  Alcotest.(check (list string)) "nearest first"
    [ "/a/b"; "/a"; "/" ]
    (List.init 3 (fun i -> Tree.name_string t (Tree.ancestor_at_depth t c (2 - i))));
  Alcotest.(check string) "the root is its own" "/"
    (Tree.name_string t (Tree.ancestor_at_depth t Tree.root 0))

let test_name_is_ancestor () =
  let t = Build.of_paths [ "/a/b"; "/ab" ] in
  let check a b expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s ancestor of %s" a b)
      expected
      (Tree.is_ancestor t (node t a) (node t b))
  in
  check "/" "/a/b" true;
  check "/a" "/a/b" true;
  check "/a/b" "/a/b" true;
  check "/a/b" "/a" false;
  check "/a" "/ab" false

let test_name_lca_distance () =
  let t =
    Build.of_paths [ "/a/b/c/d"; "/a/c"; "/c"; "/u/public/people/students"; "/u/private" ]
  in
  let lca a b = Tree.name_string t (Tree.lca t (node t a) (node t b)) in
  Alcotest.(check string) "lca siblings" "/a" (lca "/a/b" "/a/c");
  Alcotest.(check string) "lca disjoint" "/" (lca "/a/b" "/c");
  Alcotest.(check string) "lca nested" "/a/b" (lca "/a/b" "/a/b/c/d");
  let dist a b = Tree.distance t (node t a) (node t b) in
  (* The paper's example: /u/private from /u/public/people/students/Lisa. *)
  Alcotest.(check int) "paper example" 4 (dist "/u/public/people/students" "/u/private");
  Alcotest.(check int) "self" 0 (dist "/a/b" "/a/b");
  Alcotest.(check int) "parent" 1 (dist "/a/b" "/a")

(* Random namespaces over a small alphabet, so cousins share components;
   the properties below pick nodes of one by index. *)
let arb_named_tree =
  let path = QCheck.Gen.(list_size (int_bound 6) (map string_of_int (int_bound 3))) in
  QCheck.make
    ~print:(fun (paths, picks) ->
      Printf.sprintf "paths [%s], picks [%s]"
        (String.concat "; " (List.map (fun cs -> "/" ^ String.concat "/" cs) paths))
        (String.concat "; " (List.map string_of_int picks)))
    QCheck.Gen.(pair (list_size (int_range 1 12) path) (list_size (int_range 3 6) (int_bound 1000)))

let named_tree (paths, picks) =
  let t = Build.of_paths (List.map (fun cs -> "/" ^ String.concat "/" cs) paths) in
  (t, List.map (fun i -> i mod Tree.size t) picks)

let prop_name_roundtrip =
  QCheck.Test.make ~name:"name: name_string round-trips" ~count:300 arb_named_tree (fun input ->
      let t, _ = named_tree input in
      Tree.fold t ~init:true ~f:(fun ok v -> ok && Tree.find_string t (Tree.name_string t v) = Some v))

let prop_distance_metric =
  QCheck.Test.make ~name:"name: distance is a metric (tree metric axioms)" ~count:300 arb_named_tree
    (fun input ->
      match named_tree input with
      | t, a :: b :: c :: _ ->
        let d = Tree.distance t in
        d a b = d b a && d a b >= 0 && (d a b = 0) = (a = b) && d a c <= d a b + d b c
      | _ -> false)

let prop_ancestor_distance =
  QCheck.Test.make ~name:"name: ancestors are at their depth difference" ~count:200 arb_named_tree
    (fun input ->
      let t, picks = named_tree input in
      List.for_all
        (fun v ->
          List.for_all
            (fun d -> Tree.distance t v (Tree.ancestor_at_depth t v d) = Tree.depth t v - d)
            (List.init (Tree.depth t v + 1) Fun.id))
        picks)

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
  Alcotest.check_raises "empty component" (Invalid_argument "Tree.Builder.add_child: invalid component")
    (fun () -> ignore (Tree.Builder.add_child b Tree.root ""));
  Alcotest.check_raises "component with a slash"
    (Invalid_argument "Tree.Builder.add_child: invalid component") (fun () ->
      ignore (Tree.Builder.add_child b Tree.root "a/b"));
  let t = Tree.Builder.freeze b in
  Tree.check_invariants t;
  Alcotest.check_raises "sealed" (Invalid_argument "Tree.Builder.add_child: builder is sealed")
    (fun () -> ignore (Tree.Builder.add_child b Tree.root "z"))

(* [find_string] walks the tree down from the root; the
   reference is a linear scan for the node whose rendered name is the
   path.  Trees come from [of_paths] over a small alphabet (so siblings
   share components with cousins) and from [coda_like]; queries mix the
   tree's own names with random, mostly absent, paths. *)
let linear_find t cs =
  let path = "/" ^ String.concat "/" cs in
  Tree.fold t ~init:None ~f:(fun acc v ->
      if Option.is_none acc && String.equal (Tree.name_string t v) path then Some v else acc)

let prop_find_matches_linear =
  let comps = QCheck.Gen.(list_size (int_bound 5) (map (Printf.sprintf "c%d") (int_bound 3))) in
  let gen =
    QCheck.Gen.(
      triple
        (oneof
           [
             map (fun ps -> `Paths ps) (list_size (int_range 1 30) comps);
             map (fun seed -> `Coda seed) (int_bound 1000);
           ])
        (list_size (int_bound 20) comps)
        (list_size (int_bound 20) (int_bound 10_000)))
  in
  QCheck.Test.make ~name:"tree: find_string = linear scan" ~count:100 (QCheck.make gen)
    (fun (shape, absent, picks) ->
      let t =
        match shape with
        | `Paths ps -> Build.of_paths (List.map (fun cs -> "/" ^ String.concat "/" cs) ps)
        | `Coda seed -> Build.coda_like ~seed ~target:300 ()
      in
      let components v = List.filter (( <> ) "") (String.split_on_char '/' (Tree.name_string t v)) in
      let own = List.map (fun i -> components (i mod Tree.size t)) picks in
      List.for_all
        (fun cs ->
          let expected = linear_find t cs in
          Tree.find_string t ("/" ^ String.concat "/" cs) = expected
          && Tree.find_string t (String.concat "/" cs) = expected
          && Tree.find_string t (String.concat "//" cs ^ "/") = expected)
        (absent @ own))

(* The shared tree is paid for per node at every scale: spans, components
   and children arrays, nothing per-node besides.  The names are counted:
   the tree is the only place they live. *)
let test_tree_words_per_node () =
  let t = Build.balanced ~arity:2 ~levels:14 in
  let words = Obj.reachable_words (Obj.repr t) in
  let per_node = float_of_int words /. float_of_int (Tree.size t) in
  if per_node > 8.0 then Alcotest.failf "%.2f words per node (at most 8)" per_node

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

(* Name-level distance, read off the rendered paths alone: hops up from
   each name to their longest common prefix. *)
let name_level_distance t a b =
  let comps v = List.filter (( <> ) "") (String.split_on_char '/' (Tree.name_string t v)) in
  let rec common = function
    | x :: xs, y :: ys when String.equal x y -> 1 + common (xs, ys)
    | _ -> 0
  in
  let ca = comps a and cb = comps b in
  List.length ca + List.length cb - (2 * common (ca, cb))

let prop_tree_distance_equals_name_distance =
  QCheck.Test.make ~name:"tree: interned distance = name-level distance" ~count:100
    QCheck.(pair (int_bound 62) (int_bound 62))
    (fun (a, b) ->
      let t = Build.balanced ~arity:2 ~levels:5 in
      Tree.distance t a b = name_level_distance t a b)

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
          Alcotest.test_case "at most 8 words per node" `Quick test_tree_words_per_node;
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
            prop_find_matches_linear;
          ] );
    ]
