open Terradir_util

let balanced_node_count ~arity ~levels =
  if arity = 1 then levels + 1
  else
    let rec pow acc n = if n = 0 then acc else pow (acc * arity) (n - 1) in
    (pow 1 (levels + 1) - 1) / (arity - 1)

let balanced ~arity ~levels =
  if arity < 1 then invalid_arg "Build.balanced: arity must be >= 1";
  if levels < 0 then invalid_arg "Build.balanced: levels must be >= 0";
  let b = Tree.Builder.create () in
  (* Breadth-first: each level's ids are contiguous, [first, size), so we
     can expand level by level without extra bookkeeping. *)
  let first = ref Tree.root and labels = Array.init arity string_of_int in
  for _ = 1 to levels do
    let next = Tree.Builder.size b in
    for parent = !first to next - 1 do
      for i = 0 to arity - 1 do
        ignore (Tree.Builder.add_child b parent labels.(i) : Tree.node)
      done
    done;
    first := next
  done;
  Tree.Builder.freeze b

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

(* Levels L with 2^(L+1) - 1 ≈ 8·servers. *)
let balanced_for ~servers = balanced ~arity:2 ~levels:(max 3 (log2i (8 * servers)))

(* Coda-like generator.  A weighted growth process over "directories":
   - each step adds one node under some open directory;
   - the new node is itself a directory with probability [p_dir];
   - the target directory is chosen by a mix of uniform choice (bushy,
     shallow growth) and most-recently-created preference (deep chains),
     which together yield the irregular, heavy-tailed shape of real file
     systems;
   - directories are closed (removed from the frontier) once they reach a
     per-directory fan-out cap drawn from a Pareto-like distribution. *)
let coda_like ?(seed = 1993) ~target () =
  if target < 1 then invalid_arg "Build.coda_like: target must be >= 1";
  let rng = Splitmix.create seed in
  let b = Tree.Builder.create () in
  let p_dir = 0.22 in
  let max_dir_depth = 13 (* directories deeper than this hold only files *) in
  let depth_of = Hashtbl.create 1024 in
  Hashtbl.add depth_of Tree.root 0;
  let frontier = ref [| Tree.root |] in
  let frontier_len = ref 1 in
  let capacity = Hashtbl.create 1024 in
  let fanout = Hashtbl.create 1024 in
  let draw_capacity () =
    (* Pareto(alpha=1.1) clipped to [2, 400]: few huge directories, many
       small ones. *)
    let u = Splitmix.float rng 1.0 in
    let v = 2.0 /. ((1.0 -. u) ** (1.0 /. 1.1)) in
    int_of_float (Float.min v 400.0)
  in
  Hashtbl.add capacity Tree.root (max 8 (draw_capacity ()));
  Hashtbl.add fanout Tree.root 0;
  let push dir =
    if !frontier_len = Array.length !frontier then begin
      let fresh = Array.make (2 * !frontier_len) 0 in
      Array.blit !frontier 0 fresh 0 !frontier_len;
      frontier := fresh
    end;
    !frontier.(!frontier_len) <- dir;
    frontier_len := !frontier_len + 1
  in
  let remove_at i =
    frontier_len := !frontier_len - 1;
    !frontier.(i) <- !frontier.(!frontier_len)
  in
  let counter = ref 0 in
  while Tree.Builder.size b < target do
    (* If every directory filled up, open a new top-level "volume" (as a
       Coda server accumulates mount points over a month of activity). *)
    if !frontier_len = 0 then begin
      incr counter;
      let volume = Tree.Builder.add_child b Tree.root (Printf.sprintf "vol%d" !counter) in
      Hashtbl.add capacity volume (max 8 (draw_capacity ()));
      Hashtbl.add fanout volume 0;
      Hashtbl.add depth_of volume 1;
      push volume
    end;
    (* 60% uniform over open dirs, 40% most recently opened: the latter
       drives the deep thin chains characteristic of source trees. *)
    let idx =
      if Splitmix.float rng 1.0 < 0.6 then Splitmix.int rng !frontier_len else !frontier_len - 1
    in
    let dir = !frontier.(idx) in
    incr counter;
    let child = Tree.Builder.add_child b dir (Printf.sprintf "n%d" !counter) in
    let f = Hashtbl.find fanout dir + 1 in
    Hashtbl.replace fanout dir f;
    if f >= Hashtbl.find capacity dir then remove_at idx;
    let child_depth = Hashtbl.find depth_of dir + 1 in
    if child_depth < max_dir_depth && Splitmix.float rng 1.0 < p_dir then begin
      Hashtbl.add capacity child (draw_capacity ());
      Hashtbl.add fanout child 0;
      Hashtbl.add depth_of child child_depth;
      push child
    end
  done;
  Tree.Builder.freeze b

(* Each path's components are walked from the root; a (parent, component)
   table reuses the children earlier paths made. *)
let of_paths paths =
  let b = Tree.Builder.create () in
  let made = Hashtbl.create 256 in
  let step parent c =
    if c = "" then parent
    else
      match Hashtbl.find_opt made (parent, c) with
      | Some id -> id
      | None ->
        let id = Tree.Builder.add_child b parent c in
        Hashtbl.add made (parent, c) id;
        id
  in
  List.iter (fun p -> ignore (List.fold_left step Tree.root (String.split_on_char '/' p) : Tree.node)) paths;
  Tree.Builder.freeze b

let describe t =
  let n = Tree.size t in
  let leaves = List.length (Tree.leaves t) in
  let fan = Stats.create () in
  Tree.iter t (fun v -> if Tree.num_children t v > 0 then Stats.add fan (float_of_int (Tree.num_children t v)));
  Printf.sprintf "nodes=%d max_depth=%d mean_fanout=%.2f max_fanout=%.0f leaf_share=%.2f" n
    (Tree.max_depth t) (Stats.mean fan)
    (if Stats.count fan = 0 then 0.0 else Stats.max_value fan)
    (float_of_int leaves /. float_of_int n)
