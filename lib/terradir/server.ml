open Terradir_util
open Terradir_namespace
open Types
module Obs = Terradir_obs.Obs
module Event = Terradir_obs.Event

type host_kind = Owned | Replicated

type hosted = {
  h_kind : host_kind;
  h_map : Node_map.t;
  h_meta_version : int;
  h_last_used : float;
}

type session = { session_id : int; mutable tried : server_id list; mutable attempts : int }

let queue_capacity = 12

(* Busy-fraction measurement window W (§4.1); also the ranking decay
   period. *)
let load_window = 0.5

(* Bound on stored remote digests per server. *)
let max_remote_digests = 64

let max_digests_consulted = 8
(* Bloom false positives compound across (ancestors × digests) tests, so a
   routing step consults only the most recently refreshed digests. *)

type t = {
  id : server_id;
  config : Config.t;
  tree : Tree.t;
  rng : Splitmix.t;
  obs : Obs.t;
  speed : float;
  hosted : Node_map.t Intmap.t;
  neighbor_maps : Node_map.t Intmap.t;
  mutable owned_count : int;
  mutable replica_count : int;
  cache : Cache.t;
  digests : Digest_store.t;
  load : Load_meter.t;
  ranking : Ranking.t;
  known_loads : Packed_table.t;
  mutable peer_seq : int;
  mutable peer_buckets : int;
  queue : message Queue.t;
  ctrl_queue : message Queue.t;
  mutable serving : bool;
  mutable obs_busy : bool;
  mutable session : session option;
  floats : floatarray;
  mutable alive : bool;
  mutable replicas_evicted : int;
}

(* Cells of [floats]: per-event float state kept unboxed, so writing it
   allocates nothing (a [mutable float] field of this record would box
   every write and keep the box alive from a major-heap record). *)
let i_peer_load_sum = 0

let i_session_backoff_until = 1

let i_last_decay = 2

let peer_load_sum t = Float.Array.get t.floats i_peer_load_sum

let session_backoff_until t = Float.Array.get t.floats i_session_backoff_until

let set_session_backoff_until t time = Float.Array.set t.floats i_session_backoff_until time

(* The bucket count a Stdlib [Hashtbl.create 32] starts (and resets) at:
   [min_load_peer] replays that table's order. *)
let initial_peer_buckets = 32

let create ~id ~config ~tree ?(speed = 1.0) ?(obs = Obs.null) ~rng () =
  if speed <= 0.0 then invalid_arg "Server.create: speed must be positive";
  {
    id;
    config;
    tree;
    rng;
    obs;
    speed;
    hosted = Intmap.create ~ints:true ~floats:true ();
    neighbor_maps = Intmap.create ~ints:true ();
    owned_count = 0;
    replica_count = 0;
    cache = Cache.create ~obs ~owner:id ~slots:config.Config.cache_slots ~r_map:config.Config.r_map ~rng ();
    digests = Digest_store.create ~max_remote:max_remote_digests ();
    load = Load_meter.create ~window:load_window;
    ranking = Ranking.create ();
    known_loads = Packed_table.create ~floats:true ();
    peer_seq = 0;
    peer_buckets = initial_peer_buckets;
    queue = Queue.create ();
    ctrl_queue = Queue.create ();
    serving = false;
    obs_busy = false;
    session = None;
    floats = Float.Array.make 3 0.0;
    alive = true;
    replicas_evicted = 0;
  }

(* A hosted entry's int cell is [meta_version lsl 1 lor kind], the kind
   bit 0 for owned and 1 for a replica; its float cell is the time of the
   last processed query for it.  A neighbor context's int cell is its
   refcount. *)
let kind_bit = function Owned -> 0 | Replicated -> 1

let hosted_kind_at t i = if Intmap.int_at t.hosted i land 1 = 0 then Owned else Replicated

let meta_version_at t i = Intmap.int_at t.hosted i asr 1

let set_meta_version_at t i v =
  Intmap.set_int_at t.hosted i ((v lsl 1) lor (Intmap.int_at t.hosted i land 1))

let find_hosted t node =
  match Intmap.slot t.hosted node with
  | -1 -> None
  | i ->
    Some
      {
        h_kind = hosted_kind_at t i;
        h_map = Intmap.value_at t.hosted i;
        h_meta_version = meta_version_at t i;
        h_last_used = Float.Array.get (Intmap.floats t.hosted) i;
      }

let hosts t node = Intmap.mem t.hosted node

let hosted_nodes t =
  List.sort Int.compare (Intmap.fold t.hosted ~init:[] ~f:(fun acc node _ -> node :: acc))

let nodes_of_kind t kind =
  let acc = ref [] in
  for i = 0 to Intmap.length t.hosted - 1 do
    if hosted_kind_at t i = kind then acc := Intmap.key_at t.hosted i :: !acc
  done;
  List.sort Int.compare !acc

let owned_nodes t = nodes_of_kind t Owned

let replica_nodes t = nodes_of_kind t Replicated

(* The slot-order walk (vs the sorted [hosted_nodes] list) yields the same
   filter without the sort + list allocation: Bloom bit-sets are
   iteration-order independent. *)
let rebuild_digest t =
  (* The iterator waits in the digest store until the next read, so it
     closes over the hosted table only, not the whole server. *)
  let hosted = t.hosted in
  Digest_store.rebuild_local_from t.digests ~count:(Intmap.length hosted) ~iter:(fun add ->
      Intmap.iter hosted ~f:(fun node _ -> add node))

let neighbor_map t node =
  match Intmap.slot t.neighbor_maps node with
  | -1 -> Node_map.empty
  | i -> Intmap.value_at t.neighbor_maps i

let known_map t node =
  match Intmap.slot t.hosted node with
  | -1 -> (
    match Intmap.slot t.neighbor_maps node with
    | -1 -> Cache.peek t.cache ~node
    | i -> Some (Intmap.value_at t.neighbor_maps i))
  | i -> Some (Intmap.value_at t.hosted i)

let r_map t = t.config.Config.r_map

(* Fold [map] into neighbor slot [i]'s context. *)
let merge_neighbor_at t i map =
  let nm = t.neighbor_maps in
  Intmap.set_at nm i (Node_map.merge ~max:(r_map t) t.rng (Intmap.value_at nm i) map)

(* Reference one tree-neighbor context, merging in [map] as the initial or
   additional view. *)
let ref_neighbor t node map =
  let nm = t.neighbor_maps in
  match Intmap.slot nm node with
  | -1 ->
    Intmap.add nm node map;
    Intmap.set_int_at nm (Intmap.length nm - 1) 1
  | i ->
    Intmap.set_int_at nm i (Intmap.int_at nm i + 1);
    if not (Node_map.is_empty map) then merge_neighbor_at t i map

let unref_neighbor t node =
  let nm = t.neighbor_maps in
  match Intmap.slot nm node with
  | -1 -> ()
  | i ->
    let refs = Intmap.int_at nm i - 1 in
    if refs <= 0 then Intmap.remove_at nm i else Intmap.set_int_at nm i refs

let host t node kind ~map ~meta_version ~now =
  let h = t.hosted in
  Intmap.add h node map;
  let i = Intmap.length h - 1 in
  Intmap.set_int_at h i ((meta_version lsl 1) lor kind_bit kind);
  Float.Array.set (Intmap.floats h) i now;
  match kind with
  | Owned -> t.owned_count <- t.owned_count + 1
  | Replicated -> t.replica_count <- t.replica_count + 1

let install_hosted t node kind ~map ~meta_version ~context ~now =
  host t node kind ~map ~meta_version ~now;
  (* Every producer of a context assembles it by mapping over
     [Tree.neighbors], so the common case is both lists in lockstep — walk
     them together and only fall back to an assoc scan for a sender that
     reordered or omitted entries.  This turns context installation from
     O(neighbors x context) scans into one linear pass. *)
  let rec walk nbs ctx =
    match (nbs, ctx) with
    | [], _ -> ()
    | nb :: nbs', (n, m) :: ctx' when n = nb ->
      ref_neighbor t nb m;
      walk nbs' ctx'
    | nb :: nbs', _ ->
      let nb_map =
        match List.assoc_opt nb context with Some m -> m | None -> Node_map.empty
      in
      ref_neighbor t nb nb_map;
      walk nbs' ctx
  in
  walk (Tree.neighbors t.tree node) context;
  rebuild_digest t

(* [install_hosted] with the context [owner_map nb] for each neighbor,
   parent first: no neighbor or context list is built. *)
let add_owned t node ~owner_map =
  if hosts t node then invalid_arg "Server.add_owned: already hosted";
  let map = owner_map node in
  (match Node_map.owner map with
  | Some owner when owner = t.id -> ()
  | Some _ | None -> invalid_arg "Server.add_owned: owner map names another server");
  host t node Owned ~map ~meta_version:0 ~now:0.0;
  (match Tree.parent t.tree node with Some p -> ref_neighbor t p (owner_map p) | None -> ());
  Array.iter (fun c -> ref_neighbor t c (owner_map c)) (Tree.children t.tree node);
  rebuild_digest t

(* Set hosted slot [i]'s map.  Bounded merges can push a replica host's
   own (non-owner) entry out of its hosted node's map; the map a host
   advertises must always include itself, so it is pinned back in. *)
let set_hosted_map t i map ~now =
  let map =
    if Node_map.mem map t.id then map
    else
      Node_map.add_pinned ~max:(r_map t) map
        { Node_map.server = t.id; is_owner = hosted_kind_at t i = Owned; stamp = now }
  in
  Intmap.set_at t.hosted i map

let merge_into_known_map t node map ~now =
  if Node_map.is_empty map then ()
  else
    match Intmap.slot t.hosted node with
    | -1 -> (
      match Intmap.slot t.neighbor_maps node with
      | -1 -> if t.config.Config.features.Config.caching then Cache.insert t.cache ~node map
      | i -> merge_neighbor_at t i map)
    | i -> set_hosted_map t i (Node_map.merge ~max:(r_map t) t.rng (Intmap.value_at t.hosted i) map) ~now

let touch_node t node ~now =
  Ranking.touch t.ranking node;
  (match Intmap.slot t.hosted node with
  | -1 -> ()
  | i -> Float.Array.set (Intmap.floats t.hosted) i now);
  (* Periodic exponential decay keeps weights tracking recent demand. *)
  while now -. Float.Array.get t.floats i_last_decay >= load_window do
    Ranking.decay t.ranking;
    Float.Array.set t.floats i_last_decay (Float.Array.get t.floats i_last_decay +. load_window)
  done

(* [peer_load_sum] mirrors Σ known_loads incrementally: the replication
   trigger consults the believed mean load after EVERY processed message,
   and a fresh fold there is O(peers) — the per-event cost that made large
   deployments (fig9's upper sizes) collapse.  Drift from the running
   subtract/add is deterministic (per-server update order is fixed for any
   engine-domain count) and re-zeroed whenever the table empties.

   A new peer's payload is its insertion sequence, and [peer_buckets]
   follows the Stdlib [Hashtbl] this table once was: it doubles when the
   peer count exceeds twice the buckets and never shrinks before a reset.
   Together they give [min_load_peer] that table's visit order. *)
let note_peer_load t peer load =
  if peer <> t.id then begin
    let kl = t.known_loads in
    match Packed_table.find kl peer with
    | -1 ->
      Float.Array.set t.floats i_peer_load_sum (Float.Array.get t.floats i_peer_load_sum +. load);
      let i = Packed_table.add kl peer t.peer_seq in
      Float.Array.set (Packed_table.floats kl) i load;
      t.peer_seq <- t.peer_seq + 1;
      assert (t.peer_seq lsr Packed_table.payload_bits = 0);
      if Packed_table.length kl > 2 * t.peer_buckets then t.peer_buckets <- 2 * t.peer_buckets
    | i ->
      let loads = Packed_table.floats kl in
      Float.Array.set t.floats i_peer_load_sum
        (Float.Array.get t.floats i_peer_load_sum -. Float.Array.get loads i +. load);
      Float.Array.set loads i load
  end

(* The least load, ties to the least [(bucket, -seq)]: the order in which
   [Hashtbl.fold] visited the table this replays — buckets ascending
   ([Hashtbl.hash peer] over the replayed bucket count), the newest entry
   first within a bucket (a resize keeps that order) — so the peer picked
   is the first-visited of the least loaded, which the fold's [l <= load]
   rule kept.  Ties are everywhere at bootstrap, when every peer is
   believed idle, and every published figure bakes this choice in. *)
let min_load_peer t ~exclude =
  let kl = t.known_loads and mask = t.peer_buckets - 1 in
  let loads = Packed_table.floats kl in
  let best = ref (-1) and best_bucket = ref 0 and best_seq = ref 0 in
  for i = 0 to Packed_table.capacity kl - 1 do
    let peer = Packed_table.key_at kl i in
    if peer >= 0 && not (List.mem peer exclude) then begin
      let bucket = Hashtbl.hash peer land mask and seq = Packed_table.payload_at kl i in
      let load = Float.Array.get loads i in
      if
        !best < 0
        ||
        let l = Float.Array.get loads !best in
        load < l || (load = l && (bucket < !best_bucket || (bucket = !best_bucket && seq > !best_seq)))
      then begin
        best := i;
        best_bucket := bucket;
        best_seq := seq
      end
    end
  done;
  if !best < 0 then None else Some (Packed_table.key_at kl !best, Float.Array.get loads !best)

let replica_budget t =
  int_of_float (t.config.Config.r_fact *. float_of_int t.owned_count) - t.replica_count

let evict_replica t node =
  match Intmap.slot t.hosted node with
  | -1 -> invalid_arg "Server.evict_replica: node not hosted"
  | i when hosted_kind_at t i = Owned ->
    invalid_arg "Server.evict_replica: node is owned, not a replica"
  | i ->
    Intmap.remove_at t.hosted i;
    t.replica_count <- t.replica_count - 1;
    t.replicas_evicted <- t.replicas_evicted + 1;
    (* lint: obs-in-hot-path replica churn is counters-level and rare *)
    if Obs.counters_on t.obs then Obs.record t.obs ~server:t.id (Event.Replica_evicted { node });
    List.iter (unref_neighbor t) (Tree.neighbors t.tree node);
    Ranking.remove t.ranking node;
    rebuild_digest t

let remove_owned t node =
  match Intmap.slot t.hosted node with
  | -1 -> invalid_arg "Server.remove_owned: node not hosted"
  | i when hosted_kind_at t i = Replicated ->
    invalid_arg "Server.remove_owned: node is a replica, not owned"
  | i ->
    Intmap.remove_at t.hosted i;
    t.owned_count <- t.owned_count - 1;
    List.iter (unref_neighbor t) (Tree.neighbors t.tree node);
    Ranking.remove t.ranking node;
    (* The replica budget shrank with the owned count; shed the overflow. *)
    let max_replicas = int_of_float (t.config.Config.r_fact *. float_of_int t.owned_count) in
    if t.replica_count > max_replicas then begin
      let victims = Ranking.ranked_asc t.ranking ~among:(replica_nodes t) in
      let rec shed = function
        | (v, _) :: rest when t.replica_count > max_replicas ->
          evict_replica t v;
          shed rest
        | _ -> ()
      in
      shed victims
    end;
    rebuild_digest t

let install_owned t payload ~now =
  let node = payload.rp_node in
  (match Intmap.slot t.hosted node with
  | -1 -> ()
  | i when hosted_kind_at t i = Replicated -> evict_replica t node
  | _ -> invalid_arg "Server.install_owned: already owned");
  let map =
    Node_map.add_pinned ~max:(r_map t) payload.rp_map
      { Node_map.server = t.id; is_owner = true; stamp = now }
  in
  install_hosted t node Owned ~map ~meta_version:payload.rp_meta_version
    ~context:payload.rp_context ~now;
  Ranking.seed t.ranking node payload.rp_weight_hint

let install_replica t payload ~now =
  let node = payload.rp_node in
  match Intmap.slot t.hosted node with
  | i when i >= 0 ->
    (* Already hosted: fold in the newer view (soft-state merge). *)
    set_hosted_map t i (Node_map.merge ~max:(r_map t) t.rng (Intmap.value_at t.hosted i) payload.rp_map) ~now;
    if payload.rp_meta_version > meta_version_at t i then set_meta_version_at t i payload.rp_meta_version;
    List.iter
      (fun (nb, map) ->
        match Intmap.slot t.neighbor_maps nb with -1 -> () | j -> merge_neighbor_at t j map)
      payload.rp_context;
    `Merged
  | _ ->
    (* Make room under the replication factor by evicting lowest-ranked
       replicas (§3.5) — but only replicas the incoming node clearly
       dominates.  Displacing comparably-warm replicas would thrash: under
       flat demand every server at budget would keep swapping replicas
       forever.  The margin asks for a 2× demand gap. *)
    let displacement_margin = 2.0 in
    let max_replicas = int_of_float (t.config.Config.r_fact *. float_of_int t.owned_count) in
    let deficit () = t.replica_count + 1 - max_replicas in
    if max_replicas < 1 then `Rejected
    else begin
      if deficit () > 0 then begin
        let victims = Ranking.ranked_asc t.ranking ~among:(replica_nodes t) in
        let rec evict = function
          | (v, w) :: rest when deficit () > 0 && w *. displacement_margin < payload.rp_weight_hint ->
            evict_replica t v;
            evict rest
          | _ -> ()
        in
        evict victims
      end;
      if deficit () > 0 then `Rejected
      else begin
        (* Pinned: a full same-stamp rp_map must not truncate the new
           host's own entry out of the map it will advertise. *)
        let map =
          Node_map.add_pinned ~max:(r_map t) payload.rp_map
            { Node_map.server = t.id; is_owner = false; stamp = now }
        in
        install_hosted t node Replicated ~map ~meta_version:payload.rp_meta_version
          ~context:payload.rp_context ~now;
        Ranking.seed t.ranking node payload.rp_weight_hint;
        `Installed
      end
    end

let idle_scan t ~now =
  let timeout = t.config.Config.replica_idle_timeout in
  let last_used = Intmap.floats t.hosted and idle = ref [] in
  for i = 0 to Intmap.length t.hosted - 1 do
    if hosted_kind_at t i = Replicated && now -. Float.Array.get last_used i > timeout then
      idle := Intmap.key_at t.hosted i :: !idle
  done;
  let victims = List.sort Int.compare !idle in
  List.iter (evict_replica t) victims;
  victims

let queue_length t = Queue.length t.queue

let prune_map_with_digests t node map =
  if not t.config.Config.features.Config.digests then map
  else begin
    let pruned =
      Node_map.filter map ~f:(fun server ->
          match Digest_store.test_remote t.digests ~server ~node with
          | Some false -> false (* digest denial is authoritative: no false negatives *)
          | Some true | None -> true)
    in
    if Obs.full_on t.obs then begin
      let removed = Node_map.size map - Node_map.size pruned in
      (* lint: obs-in-hot-path gated on the full level; pure size readout *)
      if removed > 0 then Obs.record t.obs ~server:t.id (Event.Digest_prune { removed })
    end;
    pruned
  end

let make_replica_payload t node =
  match Intmap.slot t.hosted node with
  | -1 -> None
  | i ->
    let context =
      List.map
        (fun nb ->
          let map = match known_map t nb with Some m -> m | None -> Node_map.empty in
          (nb, map))
        (Tree.neighbors t.tree node)
    in
    Some
      {
        rp_node = node;
        rp_meta_version = meta_version_at t i;
        rp_map = Intmap.value_at t.hosted i;
        rp_context = context;
        rp_weight_hint = Ranking.weight t.ranking node /. 2.0;
      }

let forget_server t node server =
  match Intmap.slot t.hosted node with
  | -1 -> (
    let nm = t.neighbor_maps in
    match Intmap.slot nm node with
    | -1 -> Cache.update t.cache ~node ~f:(fun map -> Node_map.remove map server)
    | i -> Intmap.set_at nm i (Node_map.remove (Intmap.value_at nm i) server))
  | i -> Intmap.set_at t.hosted i (Node_map.remove (Intmap.value_at t.hosted i) server)

let forget_peer t peer =
  let kl = t.known_loads in
  match Packed_table.find kl peer with
  | -1 -> ()
  | i ->
    let load = Float.Array.get (Packed_table.floats kl) i in
    Packed_table.remove kl peer;
    Float.Array.set t.floats i_peer_load_sum
      (if Packed_table.length kl = 0 then 0.0 else Float.Array.get t.floats i_peer_load_sum -. load)

let forget_all_peers t =
  Packed_table.clear t.known_loads;
  t.peer_seq <- 0;
  t.peer_buckets <- initial_peer_buckets;
  Float.Array.set t.floats i_peer_load_sum 0.0

let record_new_replica t node target ~now =
  match Intmap.slot t.hosted node with
  | -1 -> ()
  | i ->
    set_hosted_map t i
      (Node_map.add ~max:(r_map t) (Intmap.value_at t.hosted i)
         { Node_map.server = target; is_owner = false; stamp = now })
      ~now;
    if Obs.counters_on t.obs then
      (* lint: obs-in-hot-path replica churn is counters-level and rare *)
      Obs.record t.obs ~server:t.id (Event.Replica_advertised { node; to_server = target })

let state_kinds t =
  let by_node (a, _) (b, _) = Int.compare a b in
  let hosted =
    List.sort by_node
      (List.init (Intmap.length t.hosted) (fun i ->
           ( Intmap.key_at t.hosted i,
             match hosted_kind_at t i with Owned -> "Owned" | Replicated -> "Replicated" )))
  in
  let neighboring =
    List.sort by_node
      (Intmap.fold t.neighbor_maps ~init:[] ~f:(fun acc node _ ->
           if hosts t node then acc else (node, "Neighboring") :: acc))
  in
  let cached = ref [] in
  Cache.iter t.cache ~f:(fun node _ ->
      if (not (hosts t node)) && not (Intmap.mem t.neighbor_maps node) then
        cached := (node, "Cached") :: !cached);
  hosted @ neighboring @ List.sort by_node !cached
