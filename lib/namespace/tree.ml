type node = int

type t = {
  uid : int; (* distinguishes trees, so an anchor never serves another tree's path *)
  children : int array array;
  span : int array;
      (* id v -> at 4v its preorder rank, at 4v+1 the last rank in its
         subtree, at 4v+2 its depth, at 4v+3 its parent (-1 for the root):
         one step up a parent chain, with its "is this above w" test, reads
         one node's four adjacent ints *)
  components : string array; (* id -> last path component, "" for the root *)
  max_depth : int;
}

let root = 0

let next_uid = Atomic.make 0

module Builder = struct
  type tree = t

  type t = {
    mutable parents : int array;
    mutable last_kid : int array; (* the newest child, -1 for none *)
    mutable prev_sib : int array; (* the sibling added just before, -1 for none *)
    mutable components : string array; (* last path component per node *)
    mutable count : int;
    mutable sealed : bool;
  }

  let create () =
    {
      parents = Array.make 16 (-1);
      last_kid = Array.make 16 (-1);
      prev_sib = Array.make 16 (-1);
      components = Array.make 16 "";
      count = 1;
      sealed = false;
    }

  let check_alive b op = if b.sealed then invalid_arg ("Tree.Builder." ^ op ^ ": builder is sealed")

  let size b = b.count

  let ensure b =
    let cap = Array.length b.parents in
    if b.count = cap then begin
      let grow a fill =
        let fresh = Array.make (2 * cap) fill in
        Array.blit a 0 fresh 0 cap;
        fresh
      in
      b.parents <- grow b.parents (-1);
      b.last_kid <- grow b.last_kid (-1);
      b.prev_sib <- grow b.prev_sib (-1);
      b.components <- grow b.components ""
    end

  (* Children are chained newest first through [prev_sib], in int arrays,
     so adding one allocates nothing for the minor collector to promote. *)
  let rec named b c k = k >= 0 && (String.equal b.components.(k) c || named b c b.prev_sib.(k))

  let add_child b parent component =
    check_alive b "add_child";
    if parent < 0 || parent >= b.count then invalid_arg "Tree.Builder.add_child: bad parent id";
    if component = "" || String.contains component '/' then
      invalid_arg "Tree.Builder.add_child: invalid component";
    if named b component b.last_kid.(parent) then invalid_arg "Tree.Builder.add_child: duplicate child";
    ensure b;
    let id = b.count in
    b.count <- id + 1;
    b.parents.(id) <- parent;
    b.components.(id) <- component;
    b.prev_sib.(id) <- b.last_kid.(parent);
    b.last_kid.(parent) <- id;
    id

  (* A node's children in insertion order: its sibling chain, read back. *)
  let kids_of b v =
    let rec collect k acc = if k < 0 then acc else collect b.prev_sib.(k) (k :: acc) in
    Array.of_list (collect b.last_kid.(v) [])

  let freeze b =
    check_alive b "freeze";
    b.sealed <- true;
    let n = b.count in
    let children = Array.init n (kids_of b) in
    (* Preorder spans without a traversal stack: a parent's id is always
       smaller than its children's, so subtree sizes accumulate in one
       downward id sweep, and ranks and depths are handed out in one
       upward sweep. *)
    let sizes = Array.make n 1 in
    for v = n - 1 downto 1 do
      let p = b.parents.(v) in
      sizes.(p) <- sizes.(p) + sizes.(v)
    done;
    let span = Array.make (4 * n) 0 and max_depth = ref 0 in
    for v = 0 to n - 1 do
      let pre = span.(4 * v) and p = b.parents.(v) in
      let d = if v = 0 then 0 else span.((4 * p) + 2) + 1 in
      max_depth := max !max_depth d;
      span.((4 * v) + 1) <- pre + sizes.(v) - 1;
      span.((4 * v) + 2) <- d;
      span.((4 * v) + 3) <- p;
      let next = ref (pre + 1) in
      Array.iter
        (fun c ->
          span.(4 * c) <- !next;
          next := !next + sizes.(c))
        children.(v)
    done;
    {
      uid = Atomic.fetch_and_add next_uid 1;
      children;
      span;
      components = Array.sub b.components 0 n;
      max_depth = !max_depth;
    }
end

let size t = Array.length t.components

let check_node t v op =
  if v < 0 || v >= size t then invalid_arg ("Tree." ^ op ^ ": node id out of range")

let[@inline] pre_of t v = t.span.(4 * v)

let[@inline] last_of t v = t.span.((4 * v) + 1)

let[@inline] depth_of t v = t.span.((4 * v) + 2)

let[@inline] parent_of t v = t.span.((4 * v) + 3)

let parent t v =
  check_node t v "parent";
  if v = 0 then None else Some (parent_of t v)

let children t v =
  check_node t v "children";
  t.children.(v)

let num_children t v = Array.length (children t v)

let depth t v =
  check_node t v "depth";
  depth_of t v

let max_depth t = t.max_depth

let neighbors t v =
  let kids = Array.to_list (children t v) in
  if v = 0 then kids else parent_of t v :: kids

let name_string t v =
  check_node t v "name_string";
  let rec up acc v = if v = root then acc else up (t.components.(v) :: acc) (parent_of t v) in
  "/" ^ String.concat "/" (up [] v)

(* Walk the path's components down through [children]; empty components
   (a leading, repeated or trailing slash) stay where they are. *)
let find_string t s =
  let step c v = Array.find_opt (fun k -> String.equal t.components.(k) c) t.children.(v) in
  List.fold_left
    (fun v c -> if c = "" then v else Option.bind v (step c))
    (Some root) (String.split_on_char '/' s)

(* [v]'s subtree holds the node of preorder rank [p] iff [p] falls inside
   [v]'s span.  The chain walks below index [span] directly, unchecked:
   every id they reach is a validated node or one of its ancestors. *)
let[@inline] holds (span : int array) v p = Array.unsafe_get span (4 * v) <= p && p <= Array.unsafe_get span ((4 * v) + 1)

let rec lift t v target_depth = if depth_of t v > target_depth then lift t (parent_of t v) target_depth else v

let rec climb span v p = if holds span v p then v else climb span (Array.unsafe_get span ((4 * v) + 3)) p

(* The LCA of [a] and [b], walking one chain from the shallower end: it
   reaches the LCA in fewer steps. *)
let lca_unchecked t a b =
  if depth_of t a <= depth_of t b then climb t.span a (pre_of t b) else climb t.span b (pre_of t a)

let lca t a b =
  check_node t a "lca";
  check_node t b "lca";
  lca_unchecked t a b

let is_ancestor t a b =
  check_node t a "is_ancestor";
  check_node t b "is_ancestor";
  holds t.span a (pre_of t b)

let ancestor_at_depth t v d =
  check_node t v "ancestor_at_depth";
  if d < 0 || d > depth_of t v then invalid_arg "Tree.ancestor_at_depth: bad depth";
  lift t v d

let distance t a b =
  check_node t a "distance";
  check_node t b "distance";
  depth_of t a + depth_of t b - (2 * depth_of t (lca_unchecked t a b))

type anchor = {
  mutable a_uid : int; (* tree the path belongs to; -1 before the first [anchor_at] *)
  mutable a_dst : node;
  mutable a_depth : int;
  mutable a_path : int array; (* depth d -> pre at 3d, last at 3d+1, node at 3d+2 *)
}

let anchor () = { a_uid = -1; a_dst = -1; a_depth = 0; a_path = [||] }

let anchor_at t a dst =
  check_node t dst "anchor_at";
  if a.a_uid <> t.uid || a.a_dst <> dst then begin
    let d = depth_of t dst in
    if Array.length a.a_path < 3 * (t.max_depth + 1) then a.a_path <- Array.make (3 * (t.max_depth + 1)) 0;
    let path = a.a_path and v = ref dst in
    for i = d downto 0 do
      path.(3 * i) <- pre_of t !v;
      path.((3 * i) + 1) <- last_of t !v;
      path.((3 * i) + 2) <- !v;
      v := parent_of t !v
    done;
    a.a_uid <- t.uid;
    a.a_dst <- dst;
    a.a_depth <- d
  end

let check_anchor t a op = if a.a_uid <> t.uid then invalid_arg ("Tree." ^ op ^ ": anchor belongs to another tree")

let anchored_distance t a v =
  check_anchor t a "anchored_distance";
  check_node t v "anchored_distance";
  (* The path's spans are nested, so "holds v" is true from the root down
     to lca(v, dst) and false below it: scan down from the root to that
     boundary.  Most candidates a routing decision scores share only a
     shallow ancestor with the destination, so the scan stops early. *)
  let path = a.a_path and p = pre_of t v in
  let d = ref 0 in
  while !d < a.a_depth && path.(3 * (!d + 1)) <= p && p <= path.((3 * (!d + 1)) + 1) do
    incr d
  done;
  depth_of t v + a.a_depth - (2 * !d)

let anchored_ancestor t a d =
  check_anchor t a "anchored_ancestor";
  if d < 0 || d > a.a_depth then invalid_arg "Tree.anchored_ancestor: bad depth";
  a.a_path.((3 * d) + 2)

let level_sizes t =
  let levels = Array.make (t.max_depth + 1) 0 in
  for v = 0 to size t - 1 do
    let d = depth_of t v in
    levels.(d) <- levels.(d) + 1
  done;
  levels

let iter t f =
  for v = 0 to size t - 1 do
    f v
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun v -> acc := f !acc v);
  !acc

let leaves t = fold t ~init:[] ~f:(fun acc v -> if num_children t v = 0 then v :: acc else acc)

let check_invariants t =
  let n = size t in
  if n = 0 then failwith "Tree: empty";
  if parent_of t 0 <> -1 then failwith "Tree: root has a parent";
  if depth_of t 0 <> 0 then failwith "Tree: root depth non-zero";
  if pre_of t 0 <> 0 || last_of t 0 <> n - 1 then failwith "Tree: root span is not [0, n-1]";
  for v = 1 to n - 1 do
    let p = parent_of t v in
    if p < 0 || p >= n then failwith "Tree: parent out of range";
    if depth_of t v <> depth_of t p + 1 then failwith "Tree: depth mismatch";
    if not (pre_of t p < pre_of t v && last_of t v <= last_of t p) then
      failwith "Tree: span not nested in parent's";
    if not (Array.exists (fun c -> c = v) t.children.(p)) then
      failwith "Tree: child missing from parent's children"
  done;
  let total_children = Array.fold_left (fun acc kids -> acc + Array.length kids) 0 t.children in
  if total_children <> n - 1 then failwith "Tree: children count mismatch";
  iter t (fun v ->
      match find_string t (name_string t v) with
      | Some v' when v' = v -> ()
      | _ -> failwith "Tree: name_string does not find its node")
