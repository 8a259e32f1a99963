open Terradir_util
module Obs = Terradir_obs.Obs
module Event = Terradir_obs.Event

type t = {
  lru : Node_map.t Lru.t;
  r_map : int;
  rng : Splitmix.t;
  obs : Obs.t;
  owner : int;  (* server id the sink attributes hit/miss events to *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(obs = Obs.null) ?(owner = -1) ~slots ~r_map ~rng () =
  if r_map < 1 then invalid_arg "Cache.create: r_map must be >= 1";
  {
    lru = Lru.create ~capacity:slots ();
    r_map;
    rng;
    obs;
    owner;
    hits = 0;
    misses = 0;
  }

let lru t = t.lru

let slots t = Lru.capacity t.lru

let length t = Lru.length t.lru

let insert t ~node map =
  if Node_map.is_empty map then ()
  else
    let merged =
      match Lru.slot t.lru node with
      | -1 -> Node_map.truncate ~max:t.r_map map
      | i -> Node_map.merge ~max:t.r_map t.rng (Lru.value_at t.lru i) map
    in
    Lru.put t.lru node merged

let count t ~node = function
  | Some _ as r ->
    t.hits <- t.hits + 1;
    (* lint: obs-in-hot-path per-lookup events only exist at the full level *)
    if Obs.full_on t.obs then Obs.record t.obs ~server:t.owner (Event.Cache_hit { node });
    r
  | None ->
    t.misses <- t.misses + 1;
    (* lint: obs-in-hot-path per-lookup events only exist at the full level *)
    if Obs.full_on t.obs then Obs.record t.obs ~server:t.owner (Event.Cache_miss { node });
    None

let use t ~node = count t ~node (Lru.find t.lru node)

let peek t ~node = count t ~node (Lru.peek t.lru node)

let update t ~node ~f =
  match Lru.peek t.lru node with
  | None -> ()
  | Some map ->
    let map' = f map in
    if Node_map.is_empty map' then Lru.remove t.lru node
    else
      (* Lru.put promotes the rewritten entry: pruning happens when the
         entry is in active use. *)
      Lru.put t.lru node map'

let iter t ~f = Lru.iter t.lru ~f

let keys_into t dst = Lru.keys_into t.lru dst

let put_unchecked t ~node map = Lru.put t.lru node map

let hits t = t.hits

let misses t = t.misses

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let clear t = Lru.clear t.lru
