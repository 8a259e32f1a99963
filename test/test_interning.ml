(* Equivalence suite for the scaling refactor: the span-and-component
   [Tree], the struct-of-arrays [Pqueue] and the floatarray [Load_meter]
   must be bit-identical — structural results and RNG draw counts — to
   the semantics of the representations they replaced.  Each reference
   implementation below is a straight rewrite of the historical code
   (string-list names, record meters, a sorted-list queue), and qcheck
   drives both sides through the same operation sequences. *)

open Terradir_util
open Terradir_namespace

(* ------------------------------------------------------------------ *)
(* Reference names: the historical string-list representation          *)
(* ------------------------------------------------------------------ *)

module Ref_name = struct
  (* A reference name is its component list, root-first. *)

  let of_string s = List.filter (fun c -> c <> "") (String.split_on_char '/' s)

  let to_string = function [] -> "/" | cs -> "/" ^ String.concat "/" cs

  let parent t = match List.rev t with [] -> None | _ :: rest -> Some (List.rev rest)

  let depth = List.length

  let rec is_ancestor a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> String.equal x y && is_ancestor xs ys

  (* The ancestor at depth [d]: the first [d] components. *)
  let ancestor_at_depth t d = List.filteri (fun i _ -> i < d) t

  let rec lowest_common_ancestor a b =
    match (a, b) with
    | x :: xs, y :: ys when String.equal x y -> x :: lowest_common_ancestor xs ys
    | _ -> []

  let distance a b = depth a + depth b - (2 * depth (lowest_common_ancestor a b))

  let equal = List.equal String.equal

  (* Every prefix of every path, each once, in the order a root-first walk
     of the paths first meets it: the order [Build.of_paths] numbers its
     nodes in. *)
  let prefixes paths =
    let seen = Hashtbl.create 64 and order = ref [] in
    let visit p =
      if not (Hashtbl.mem seen p) then begin
        Hashtbl.add seen p ();
        order := p :: !order
      end
    in
    visit [];
    List.iter (fun t -> List.iteri (fun d _ -> visit (ancestor_at_depth t (d + 1))) t) paths;
    Array.of_list (List.rev !order)
end

(* ------------------------------------------------------------------ *)
(* Tree vs the reference names                                         *)
(* ------------------------------------------------------------------ *)

(* Small alphabet so random names collide on prefixes (the interesting
   case for ancestors and LCA). *)
let components_gen = QCheck.Gen.(list_size (int_bound 6) (map string_of_int (int_bound 3)))

type shape = Paths of string list list | Coda of int

let arb_shape_and_pairs =
  QCheck.make
    ~print:(fun (shape, pairs) ->
      Printf.sprintf "%s, pairs [%s]"
        (match shape with
        | Paths ps -> "paths [" ^ String.concat "; " (List.map Ref_name.to_string ps) ^ "]"
        | Coda seed -> Printf.sprintf "coda_like seed %d" seed)
        (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "(%d, %d)" a b) pairs)))
    QCheck.Gen.(
      pair
        (oneof
           [
             map (fun ps -> Paths ps) (list_size (int_range 1 20) components_gen);
             map (fun seed -> Coda seed) (int_bound 1000);
           ])
        (list_size (int_range 1 20) (pair (int_bound 10_000) (int_bound 10_000))))

(* A listed namespace's reference name per node is known up front, ids
   included; a generated one's is its own rendering, parsed, and must
   then be consistent with every other answer. *)
let tree_and_refs = function
  | Paths ps ->
    let t = Build.of_paths (List.map Ref_name.to_string ps) in
    (t, Ref_name.prefixes ps)
  | Coda seed ->
    let t = Build.coda_like ~seed ~target:200 () in
    (t, Array.init (Tree.size t) (fun v -> Ref_name.of_string (Tree.name_string t v)))

let prop_name_ops_match =
  QCheck.Test.make ~name:"interning: every Name op matches the string-list reference"
    ~count:300 arb_shape_and_pairs
    (fun (shape, pairs) ->
      let t, refs = tree_and_refs shape in
      let same v r = Ref_name.equal refs.(v) r in
      let node_ok a =
        let r = refs.(a) in
        String.equal (Tree.name_string t a) (Ref_name.to_string r)
        && Tree.depth t a = Ref_name.depth r
        && (match (Tree.parent t a, Ref_name.parent r) with
           | None, None -> true
           | Some p, Some rp -> same p rp
           | _ -> false)
        && List.for_all
             (fun d -> same (Tree.ancestor_at_depth t a d) (Ref_name.ancestor_at_depth r d))
             (List.init (Ref_name.depth r + 1) Fun.id)
      in
      let pair_ok (a, b) =
        let ra = refs.(a) and rb = refs.(b) in
        node_ok a
        && Tree.is_ancestor t a b = Ref_name.is_ancestor ra rb
        && Tree.is_ancestor t b a = Ref_name.is_ancestor rb ra
        && same (Tree.lca t a b) (Ref_name.lowest_common_ancestor ra rb)
        && Tree.distance t a b = Ref_name.distance ra rb
      in
      let n = Tree.size t in
      n = Array.length refs && List.for_all (fun (a, b) -> pair_ok (a mod n, b mod n)) pairs)

(* [Tree.find_string] is the name parser now: canonical, respelled and
   absent paths must resolve as the reference parser reads them. *)
let prop_name_roundtrip_via_strings =
  QCheck.Test.make ~name:"interning: of_string agrees with the reference parser" ~count:300
    arb_shape_and_pairs
    (fun (shape, _) ->
      let t, refs = tree_and_refs shape in
      let parses_to v s =
        Ref_name.equal (Ref_name.of_string s) refs.(v) && Tree.find_string t s = Some v
      in
      Array.length refs = Tree.size t
      && Tree.fold t ~init:true ~f:(fun ok v ->
             let r = refs.(v) in
             ok
             && parses_to v (Ref_name.to_string r)
             && parses_to v (String.concat "//" r ^ "/")
             && Tree.find_string t (Ref_name.to_string (r @ [ "absent" ])) = None))

(* ------------------------------------------------------------------ *)
(* Tree lookups by rendered name                                       *)
(* ------------------------------------------------------------------ *)

let tree_roundtrip () =
  let tree = Build.balanced ~arity:3 ~levels:4 in
  for v = 0 to Tree.size tree - 1 do
    match Tree.find_string tree (Tree.name_string tree v) with
    | Some v' -> Alcotest.(check int) "find_string roundtrip" v v'
    | None -> Alcotest.failf "vertex %d not found by its path string" v
  done;
  Alcotest.(check (option int)) "unknown path" None (Tree.find_string tree "/no/such/node")

(* ------------------------------------------------------------------ *)
(* Pqueue (SoA heap) vs a stable-sorted list reference                 *)
(* ------------------------------------------------------------------ *)

(* Keys from a tiny set so FIFO ties are common — the ordering bug class
   the heap must get right is equal-key insertion order. *)
type qop = Add of float | Pop

let qop_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun k -> Add (float_of_int k /. 4.0)) (int_bound 8)); (2, pure Pop) ])

let arb_qops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map (function Add k -> Printf.sprintf "add %g" k | Pop -> "pop") ops))
    QCheck.Gen.(list_size (int_bound 60) qop_gen)

(* The reference queue is the insertion-ordered list of (key, seq)
   entries.  A stable sort on the key alone puts the (key, seq) minimum
   first, since seqs follow insertion order.  [ref_pop] is the
   reference's min and pop in one step. *)
let ref_pop entries =
  match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) entries with
  | [] -> None
  | (k, s) :: _ -> Some ((k, s), List.filter (fun (_, s') -> s' <> s) entries)

let prop_heap_matches_reference =
  QCheck.Test.make
    ~name:"scheduler: top_key/pop_exn agree with min/pop of a stable-sorted (key, seq) list"
    ~count:500 arb_qops
    (fun ops ->
      let h = Pqueue.create ~filler:0 in
      let model = ref [] and serial = ref 0 and ok = ref true in
      let pop () =
        match ref_pop !model with
        | None -> ok := !ok && Pqueue.is_empty h
        | Some ((k, s), rest) ->
          model := rest;
          ok :=
            !ok
            && (not (Pqueue.is_empty h))
            && Pqueue.top_key h = k
            && Pqueue.top_seq h = s
            && Pqueue.top_tag h = -s
            && Pqueue.pop_exn h = s
      in
      List.iter
        (function
          | Add k ->
            incr serial;
            Pqueue.add_tagged h ~key:k ~seq:!serial ~tag:(- !serial) !serial;
            model := !model @ [ (k, !serial) ]
          | Pop -> pop ())
        ops;
      ok := !ok && Pqueue.length h = List.length !model;
      (* Drain what remains: total order must match to the last element. *)
      while !model <> [] do
        pop ()
      done;
      !ok && Pqueue.is_empty h)

(* ------------------------------------------------------------------ *)
(* Load_meter (floatarray) vs the historical record representation     *)
(* ------------------------------------------------------------------ *)

module Ref_meter = struct
  type t = {
    window : float;
    mutable window_start : float;
    mutable busy_in_window : float;
    mutable last_window_load : float;
    mutable prev_window_load : float;
    mutable adjustment : float option;
    mutable busy_since : float option;
    mutable total_busy : float;
    mutable last_event : float;
  }

  let create ~window =
    {
      window;
      window_start = 0.0;
      busy_in_window = 0.0;
      last_window_load = 0.0;
      prev_window_load = 0.0;
      adjustment = None;
      busy_since = None;
      total_busy = 0.0;
      last_event = 0.0;
    }

  let advance t now =
    while now >= t.window_start +. t.window do
      let boundary = t.window_start +. t.window in
      (match t.busy_since with
      | Some since ->
        t.busy_in_window <- t.busy_in_window +. (boundary -. since);
        t.total_busy <- t.total_busy +. (boundary -. since);
        t.busy_since <- Some boundary
      | None -> ());
      t.prev_window_load <- t.last_window_load;
      t.last_window_load <- Float.min 1.0 (t.busy_in_window /. t.window);
      t.busy_in_window <- 0.0;
      t.window_start <- boundary;
      t.adjustment <- None
    done

  let begin_busy t now =
    t.last_event <- now;
    advance t now;
    t.busy_since <- Some now

  let end_busy t now =
    t.last_event <- now;
    advance t now;
    match t.busy_since with
    | Some since ->
      t.busy_in_window <- t.busy_in_window +. (now -. since);
      t.total_busy <- t.total_busy +. (now -. since);
      t.busy_since <- None
    | None -> assert false

  let raw_load t now =
    advance t now;
    t.last_window_load

  let load t now =
    advance t now;
    match t.adjustment with Some a -> a | None -> t.last_window_load

  let sustained_load t now =
    advance t now;
    match t.adjustment with
    | Some a -> a
    | None -> Float.min t.last_window_load t.prev_window_load

  let set_adjustment t v = t.adjustment <- Some (Float.max 0.0 (Float.min 1.0 v))

  let busy_fraction_so_far t now =
    advance t now;
    let live = match t.busy_since with Some s -> now -. s | None -> 0.0 in
    let elapsed = now -. t.window_start in
    if elapsed <= 0.0 then 0.0 else Float.min 1.0 ((t.busy_in_window +. live) /. elapsed)

  let total_busy_time t now =
    let live = match t.busy_since with Some s -> now -. s | None -> 0.0 in
    t.total_busy +. live
end

type mop = Begin | End | Load | Raw | Sustained | Adjust of float | Fraction | Total

let mop_gen =
  QCheck.Gen.(
    frequency
      [
        (3, pure Begin);
        (3, pure End);
        (2, pure Load);
        (1, pure Raw);
        (1, pure Sustained);
        (1, map (fun v -> Adjust (float_of_int v /. 8.0)) (int_bound 12));
        (1, pure Fraction);
        (1, pure Total);
      ])

let arb_mops =
  QCheck.make
    ~print:(fun ops -> string_of_int (List.length ops))
    QCheck.Gen.(list_size (int_bound 80) (pair mop_gen (int_bound 30)))

let prop_load_meter_matches =
  QCheck.Test.make ~name:"load meter: floatarray equals the record reference" ~count:500
    arb_mops
    (fun ops ->
      let m = Terradir.Load_meter.create ~window:0.5 in
      let r = Ref_meter.create ~window:0.5 in
      let now = ref 0.0 in
      let busy = ref false in
      let same a b = Float.abs (a -. b) <= 1e-12 in
      List.for_all
        (fun (op, dt) ->
          now := !now +. (float_of_int dt /. 16.0);
          let t = !now in
          match op with
          | Begin ->
            if !busy then true
            else begin
              busy := true;
              Terradir.Load_meter.begin_busy m t;
              Ref_meter.begin_busy r t;
              Terradir.Load_meter.is_busy m
            end
          | End ->
            if not !busy then true
            else begin
              busy := false;
              Terradir.Load_meter.end_busy m t;
              Ref_meter.end_busy r t;
              not (Terradir.Load_meter.is_busy m)
            end
          | Load -> same (Terradir.Load_meter.load m t) (Ref_meter.load r t)
          | Raw -> same (Terradir.Load_meter.raw_load m t) (Ref_meter.raw_load r t)
          | Sustained ->
            same (Terradir.Load_meter.sustained_load m t) (Ref_meter.sustained_load r t)
          | Adjust v ->
            Terradir.Load_meter.set_adjustment m v;
            Ref_meter.set_adjustment r v;
            same (Terradir.Load_meter.load m t) (Ref_meter.load r t)
          | Fraction ->
            same
              (Terradir.Load_meter.busy_fraction_so_far m t)
              (Ref_meter.busy_fraction_so_far r t)
          | Total ->
            same (Terradir.Load_meter.total_busy_time m t) (Ref_meter.total_busy_time r t))
        ops)

(* ------------------------------------------------------------------ *)
(* Splitmix draw accounting                                            *)
(* ------------------------------------------------------------------ *)

let splitmix_draw_counting () =
  let g = Splitmix.create 42 in
  Alcotest.(check int) "fresh stream has zero draws" 0 (Splitmix.draws g);
  let _ = Splitmix.float g 1.0 in
  Alcotest.(check int) "float is one draw" 1 (Splitmix.draws g);
  (* [int] uses rejection sampling: draws advance by at least one per call
     and the copy replays the identical sequence with identical counts. *)
  let c = Splitmix.copy g in
  Alcotest.(check int) "copy preserves the count" (Splitmix.draws g) (Splitmix.draws c);
  for bound = 1 to 100 do
    let before = Splitmix.draws g in
    let x = Splitmix.int g bound and y = Splitmix.int c bound in
    Alcotest.(check int) "copy replays the value" x y;
    Alcotest.(check int) "copy replays the draw count" (Splitmix.draws g) (Splitmix.draws c);
    if Splitmix.draws g < before + 1 then Alcotest.fail "int consumed no draw"
  done;
  let child = Splitmix.split g in
  Alcotest.(check int) "split child starts at zero" 0 (Splitmix.draws child)

let prop_node_map_merge_draws =
  (* Same inputs, same rng seed → same result and the same number of raw
     rng advances: [Splitmix.draws] is the currency the interning work is
     audited in, so pin merge's consumption to being deterministic. *)
  QCheck.Test.make ~name:"node map: merge rng consumption is input-deterministic"
    ~count:300
    QCheck.(pair (list_of_size (Gen.int_bound 8) (int_bound 9)) (int_bound 1000))
    (fun (servers, seed) ->
      let entries stamp =
        List.mapi
          (fun i s -> { Terradir.Node_map.server = s; is_owner = i = 0; stamp })
          servers
      in
      let a = Terradir.Node_map.of_entries ~max:4 (entries 1.0) in
      let b = Terradir.Node_map.of_entries ~max:4 (entries 2.0) in
      let run () =
        let rng = Splitmix.create seed in
        let m = Terradir.Node_map.merge ~max:4 rng a b in
        (Terradir.Node_map.entries m, Splitmix.draws rng)
      in
      let r1, d1 = run () and r2, d2 = run () in
      r1 = r2 && d1 = d2)

let () =
  let q = List.map (QCheck_alcotest.to_alcotest ~long:false) in
  Alcotest.run "interning"
    [
      ( "names",
        q [ prop_name_ops_match; prop_name_roundtrip_via_strings ]
        @ [ Alcotest.test_case "tree name/find roundtrip" `Quick tree_roundtrip ] );
      ("scheduler", q [ prop_heap_matches_reference ]);
      ("meters", q [ prop_load_meter_matches ]);
      ( "rng",
        q [ prop_node_map_merge_draws ]
        @ [ Alcotest.test_case "splitmix draw counting" `Quick splitmix_draw_counting ] );
    ]
