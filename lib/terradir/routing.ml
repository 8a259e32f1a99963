open Terradir_util
open Terradir_namespace
open Types
module Bloom = Terradir_bloom.Bloom
module Obs = Terradir_obs.Obs
module Event = Terradir_obs.Event

type decision =
  | Resolve
  | Forward of { via_node : node_id; to_server : server_id; shortcut : bool }
  | Dead_end

(* Per-domain workspace of one routing decision.  A decision runs start to
   finish inside one event on one domain, so a domain-local record is never
   shared, and servers carry no routing scratch of their own. *)
type scratch = {
  anchor : Tree.anchor; (* dst's root path with its preorder spans *)
  hashes : int array; (* Bloom hash pair of dst's ancestor at distance d, at 2d *)
  servers : int array; (* the consulted digests' servers, MRU first *)
  blooms : Bloom.t array; (* ... and their digests *)
  mutable cached : int array; (* the cache's nodes; grown to the largest cache seen *)
  mutable best_node : node_id; (* best_candidate's result; -1 = none *)
  mutable best_dist : int;
  mutable best_cache : bool;
}

let max_shortcut_walk = 6
(* Ancestors of dst tested per step.  A shortcut farther out is still a
   shortcut, but the conventional route makes progress every hop and gets
   another chance to find it next step; bounding the walk bounds both the
   per-step cost and the false-positive exposure. *)

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        anchor = Tree.anchor ();
        hashes = Array.make (2 * max_shortcut_walk) 0;
        servers = Array.make Server.max_digests_consulted 0;
        blooms = Array.make Server.max_digests_consulted (Bloom.create ~expected:1 ());
        cached = [||];
        best_node = -1;
        best_dist = max_int;
        best_cache = false;
      })

(* Allocation-free fast path finding only the minimum candidate, left in
   the scratch's [best_*] fields.

   Instead of scanning all tree-neighbors of hosted nodes, scan the hosted
   nodes themselves: for hosted [h] ≠ dst, the neighbor of [h] nearest to
   [dst] is the one toward [dst] — the parent when [dst] is outside [h]'s
   subtree, else the child whose subtree holds [dst] — at distance
   [distance h dst − 1].  So the best neighbor candidate overall is derived
   from the hosted node minimizing [distance h dst], without visiting any
   neighbor.  Cached nodes are scanned as themselves (the cache holds no
   empty map, so every key is a usable candidate), in slot order: the
   running minimum under the total (dist, node) order is the same for any
   visit order.  Every distance is an anchored one: dst's root path is
   written once, and each scanned node costs one span lookup and a binary
   search over that path.  [dst] must not be hosted ({!decide} resolves
   those first), so the best hosted node is never [dst] itself. *)
let best_candidate (s : Server.t) sc ~dst =
  let tree = s.tree and a = sc.anchor in
  Tree.anchor_at tree a dst;
  let best_hosted = ref (-1) and best_hosted_dist = ref max_int in
  for i = 0 to Intmap.length s.hosted - 1 do
    let node = Intmap.key_at s.hosted i in
    let d = Tree.anchored_distance tree a node in
    if d < !best_hosted_dist || (d = !best_hosted_dist && node < !best_hosted) then begin
      best_hosted := node;
      best_hosted_dist := d
    end
  done;
  sc.best_node <- -1;
  sc.best_dist <- max_int;
  sc.best_cache <- false;
  if !best_hosted >= 0 then begin
    let h = !best_hosted in
    let hd = Tree.depth tree h in
    sc.best_node <-
      (if Tree.is_ancestor tree h dst then Tree.anchored_ancestor tree a (hd + 1)
       else (* h's parent; h ≠ root, which is everyone's ancestor *)
         Tree.ancestor_at_depth tree h (hd - 1));
    sc.best_dist <- !best_hosted_dist - 1
  end;
  if Array.length sc.cached < Cache.slots s.cache then sc.cached <- Array.make (Cache.slots s.cache) 0;
  for i = 0 to Cache.keys_into s.cache sc.cached - 1 do
    let node = sc.cached.(i) in
    let d = Tree.anchored_distance tree a node in
    if d < sc.best_dist || (d = sc.best_dist && node < sc.best_node) then begin
      sc.best_node <- node;
      sc.best_dist <- d;
      sc.best_cache <- true
    end
  done

(* §3.6.1: among dst and its ancestors up to the walk bound — and strictly
   nearer than the best conventional candidate, beyond which a digest hit
   cannot improve the route — find the nearest name some consulted digest
   claims, ties going to the most recently refreshed digest.

   Digest-major: each consulted Bloom is visited once, testing ancestors
   nearest first, and a later digest is only tested for a strictly nearer
   hit.  That yields the lexicographic minimum of (distance, MRU index) —
   the same hit as walking ancestors outward and trying every digest at
   each — while each Bloom's bytes are touched in one visit.  Ancestor
   hashes are computed on first use into the scratch, unboxed. *)
let digest_shortcut (s : Server.t) ~dst ~better_than =
  let limit = min better_than max_shortcut_walk in
  if (not s.config.Config.features.Config.digests) || limit <= 0 then None
  else begin
    let sc = Domain.DLS.get scratch_key in
    let count = Digest_store.collect_mru s.digests ~skip:s.id ~servers:sc.servers ~blooms:sc.blooms in
    if count = 0 then None
    else begin
      let tree = s.tree and a = sc.anchor and hashes = sc.hashes in
      Tree.anchor_at tree a dst;
      let top = Tree.depth tree dst in
      let best = ref (min limit (top + 1)) and best_i = ref (-1) and hashed = ref 0 in
      let i = ref 0 in
      while !i < count && !best > 0 do
        let bloom = sc.blooms.(!i) and d = ref 0 in
        while !d < !best do
          if !d = !hashed then begin
            Bloom.hash_into hashes !d (Tree.anchored_ancestor tree a (top - !d));
            incr hashed
          end;
          if Bloom.mem_hashed bloom hashes.(2 * !d) hashes.((2 * !d) + 1) then begin
            best := !d;
            best_i := !i
          end
          else incr d
        done;
        incr i
      done;
      if !best_i < 0 then None
      else Some (Tree.anchored_ancestor tree a (top - !best), sc.servers.(!best_i), !best)
    end
  end

(* Pick a server from the candidate node's map: digest-pruned first, raw as
   fallback (pruning is best-effort and must not strand the query). *)
let select_server (s : Server.t) node map =
  let pruned = Server.prune_map_with_digests s node map in
  match Node_map.random_server ~exclude:s.id pruned s.rng with
  | Some _ as r -> r
  | None -> Node_map.random_server ~exclude:s.id map s.rng

(* An empty map yields no server and draws nothing, so a missing map and
   an empty one are alike here. *)
let forward_via ?oracle (s : Server.t) ~node ~from_cache =
  let map =
    match oracle with
    | Some truth ->
      (* Perfect accuracy: select among the node's actual current hosts.
         Local state is still touched so demand accounting matches. *)
      if from_cache then ignore (Cache.use s.cache ~node);
      truth node
    | None -> (
      if not from_cache then Server.neighbor_map s node
      else match Cache.use s.cache ~node with Some m -> m | None -> Node_map.empty)
  in
  if Node_map.is_empty map then None
  else
    match select_server s node map with
    | Some to_server -> Some (Forward { via_node = node; to_server; shortcut = false })
    | None -> None

(* The fallback when the nearest candidate yields no server: try every
   candidate nearest first until one does.  The candidates are every
   non-empty neighbor context and every cache entry (tree-neighbors of
   hosted nodes stand in for the hosted nodes: for hosted [n] ≠ [dst],
   some tree-neighbor of [n] is strictly closer to [dst]), in (distance,
   node) order with a node's cache entry before its neighbor context —
   keys (d, n, rank) with rank 0 for the cache and 1 for a neighbor
   context.  Each step is a successor scan over both stores for the least
   key above the last one tried, leaving it in the scratch's [best_*]
   fields, so nothing is allocated; the first step finds the nearest
   candidate, which retries the fast path's.  Rare enough that the
   quadratic cost does not matter. *)
let key_lt d n r d' n' r' = d < d' || (d = d' && (n < n' || (n = n' && r < r')))

let consider sc ~dist ~node ~rank d n r =
  if
    key_lt dist node rank d n r
    && (sc.best_node < 0
       || key_lt d n r sc.best_dist sc.best_node (if sc.best_cache then 0 else 1))
  then begin
    sc.best_node <- n;
    sc.best_dist <- d;
    sc.best_cache <- r = 0
  end

let rec fallback ?oracle (s : Server.t) sc ~cached ~dist ~node ~rank =
  let tree = s.tree and a = sc.anchor in
  sc.best_node <- -1;
  sc.best_dist <- max_int;
  sc.best_cache <- false;
  for i = 0 to cached - 1 do
    let n = sc.cached.(i) in
    consider sc ~dist ~node ~rank (Tree.anchored_distance tree a n) n 0
  done;
  for i = 0 to Intmap.length s.neighbor_maps - 1 do
    if not (Node_map.is_empty (Intmap.value_at s.neighbor_maps i)) then begin
      let n = Intmap.key_at s.neighbor_maps i in
      consider sc ~dist ~node ~rank (Tree.anchored_distance tree a n) n 1
    end
  done;
  if sc.best_node < 0 then Dead_end
  else begin
    let dist = sc.best_dist and node = sc.best_node and from_cache = sc.best_cache in
    match forward_via ?oracle s ~node ~from_cache with
    | Some decision -> decision
    | None -> fallback ?oracle s sc ~cached ~dist ~node ~rank:(if from_cache then 0 else 1)
  end

let decide ?(shortcut_bound = max_int) ?oracle (s : Server.t) ~dst =
  if Server.hosts s dst then Resolve
  else begin
    let sc = Domain.DLS.get scratch_key in
    best_candidate s sc ~dst;
    let shortcut =
      if Option.is_some oracle then None
      else digest_shortcut s ~dst ~better_than:(min sc.best_dist shortcut_bound)
    in
    match shortcut with
    | Some (via_node, to_server, _) ->
      if Obs.full_on s.Server.obs then
        (* lint: obs-in-hot-path gated on the full level; null-sink cost is one branch *)
        Obs.record s.Server.obs ~server:s.Server.id
          (Event.Digest_shortcut { node = via_node; to_server });
      Forward { via_node; to_server; shortcut = true }
    | None -> (
      (* Fast path: the nearest candidate almost always yields a server;
         fall back to the full nearest-first scan when it does not. *)
      let fast =
        if sc.best_node < 0 then None
        else forward_via ?oracle s ~node:sc.best_node ~from_cache:sc.best_cache
      in
      match fast with
      | Some decision -> decision
      | None ->
        Tree.anchor_at s.tree sc.anchor dst;
        let cached = Cache.keys_into s.cache sc.cached in
        fallback ?oracle s sc ~cached ~dist:(-1) ~node:(-1) ~rank:0)
  end
