open Terradir_util
open Terradir_namespace
open Terradir_sim
open Types
module Obs = Terradir_obs.Obs
module Event = Terradir_obs.Event

(* Stable labels for the flight recorder; event payloads carry strings so
   the obs library stays below [Types]. *)
let drop_label = function
  | Queue_full -> "queue_full"
  | Hop_budget -> "hop_budget"
  | Dead_end -> "dead_end"
  | Server_dead -> "server_dead"
  | Timed_out -> "timed_out"

(* Replication sessions (§3.3): destination servers tried per session, the
   pause after an aborted session, and the pause after a successful shed
   before the next one — it gives the shed time to divert traffic (with
   only the one-window hysteresis adjustment, a persistently hot server
   would otherwise open a session per load window and thrash). *)
let max_attempts = 3

let retry_delay = 1.0

let success_cooldown = 1.0

type request_kind =
  | Lookup of (outcome -> unit) option
  | Fetch of { tried : (server_id, unit) Hashtbl.t; on_done : (fetch_outcome -> unit) option }

type request = {
  issuer : server_id;
  node : node_id;
  born : float;
  mutable attempt : int;
  kind : request_kind;
}

type transport = {
  send : from:server_id -> to_:server_id -> payload -> unit;
  enqueue : query -> unit;
  alloc_query : unit -> query;
  free_query : query -> unit;
}

type t = {
  engine : Engine.t;
  config : Config.t;
  tree : Tree.t;
  servers : Server.t array;
  owner_of : server_id array;
  obs : Obs.t;
  hop_budget : int;
  data_holders : server_id array array;
  shard_ix : int array;
  pending : (int, request) Hashtbl.t array;
  lane_metrics : Metrics.t array;
  lat_stats : Stats.t array;
  hops_stats : Stats.t array;
  data_lat_stats : Stats.t array;
  meta_lag_stats : Stats.t array;
  replicas_created_per_level : int array array;
  id_seq : int array;
  meta_version : int array;
  transport : transport;
}

let now t = Engine.now t.engine

(* The executing lane's metrics part.  Every counter bump lands in the
   part owned by the domain running the current event, so parts never
   race; [Cluster.metrics] folds them back into one struct. *)
let met t = t.lane_metrics.(Engine.lane_index t.engine)

let free_query t q = t.transport.free_query q

(* Request and session ids encode their issuer ([(src + 1) lsl 32 lor
   seq], from one per-server counter) so any context can find both the
   owning server and its shard's pending table without global state. *)
let next_id t sid =
  let seq = t.id_seq.(sid) in
  t.id_seq.(sid) <- seq + 1;
  ((sid + 1) lsl 32) lor seq

let id_owner id = (id lsr 32) - 1

let pending_of t id = t.pending.(t.shard_ix.(id_owner id))

(* Run [f] in [target]'s context: inline when already there (or in a
   driver/sync context, where every shard lane is idle), otherwise
   re-scheduled to [target]'s lane after one network delay — the same
   price the failure signal that triggered it already paid, and never
   below the engine's lookahead.  The decision depends only on context
   ids, never on the shard layout, so one-domain and multi-domain runs
   defer identically. *)
let finalize_at t target f =
  let c = Engine.ctx t.engine in
  if c = target || c < 0 then f ()
  else Engine.schedule ~owner:target t.engine ~delay:t.config.Config.network_delay f

(* The root's owner is durable bootstrap configuration (the same DNS-style
   hint [Cluster]'s join installs), not soft state.  A server
   whose maps have all been pruned empty — bounce-pruning around dead peers
   can strand a leaf owner with no outward knowledge at all — re-reads that
   configuration instead of dead-ending queries forever.  Returns whether a
   usable hint was installed (false when this server is itself the root
   contact, where the hint cannot help: routing never self-forwards). *)
let reseed_root_contact t s =
  let root_owner = t.owner_of.(Tree.root) in
  if Server.hosts s Tree.root || root_owner = s.Server.id then false
  else begin
    Cache.insert s.Server.cache ~node:Tree.root
      (Node_map.singleton ~is_owner:true ~server:root_owner ~stamp:(now t) ());
    true
  end

(* Bounce-pruning must never erase the namespace itself.  Ownership is the
   one durable fact about a node; the context map a host keeps for a tree
   neighbor is delegation state (a DNS zone's NS record), and pruning a
   dead host out of it may not leave it permanently empty — that strands
   the whole subtree even after its owner revives, because re-learning
   needs a resolution and resolving needs the delegation.  Re-seed the
   current owner instead.  A still-dead owner is fine: queries to it keep
   bouncing into the hop budget (the region is {e unreachable}, not
   {e forgotten}) and resolve again the moment it revives. *)
let reseed_delegation t s node =
  match Server.neighbor_map s node with
  | Some m when Node_map.is_empty m ->
    Server.merge_into_known_map s node
      (Node_map.singleton ~is_owner:true ~server:t.owner_of.(node) ~stamp:(now t) ())
      ~now:(now t)
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Message processing                                                  *)
(* ------------------------------------------------------------------ *)

let rec process t sid msg =
  let s = t.servers.(sid) in
  (match msg.msg_payload with
  | Query q -> process_query ~from:msg.msg_from t s q
  | Query_reply q -> complete_query t s q
  | Load_probe { session } ->
    t.transport.send ~from:sid ~to_:msg.msg_from
      (Load_reply { session; load = Load_meter.load s.Server.load (now t) })
  | Load_reply { session; load } -> handle_load_reply t s ~peer:msg.msg_from ~session ~peer_load:load
  | Replicate { session = _; replicas } ->
    handle_replicate t s ~sender:msg.msg_from ~sender_load:(Float.Array.get msg.msg_load 0) replicas
  | Data_request { fetch_id; node; client } ->
    (* Data is durable at its holders (like ownership); serving it is pure
       busy time, already accounted by this service slot. *)
    t.transport.send ~from:sid ~to_:client (Data_reply { fetch_id; node })
  | Data_reply { fetch_id; _ } -> (
    match Hashtbl.find_opt (pending_of t fetch_id) fetch_id with
    | Some ({ kind = Fetch { on_done; _ }; _ } as f) ->
      Hashtbl.remove (pending_of t fetch_id) fetch_id;
      let m = met t in
      m.Metrics.data_completed <- m.Metrics.data_completed + 1;
      let latency = now t -. f.born in
      Stats.add t.data_lat_stats.(f.issuer) latency;
      Option.iter (fun k -> k (Fetched { latency })) on_done
    | Some { kind = Lookup _; _ } | None -> ()));
  (* §3.3 step 1: a server checks its load after each processed query. *)
  maybe_start_session t s

(* Path propagation is the caching mechanism (§2.4): without caching the
   base system neither carries nor absorbs path state.  Under the
   [Endpoints_only] strawman policy, intermediate servers absorb nothing —
   only the source caches, from the reply (see [complete_query]). *)
and absorb_path ?(at_endpoint = false) t s q =
  let cfg = t.config in
  if
    cfg.Config.features.Config.caching
    && (cfg.Config.cache_policy = Config.Path_propagation || at_endpoint)
  then begin
    let time = now t in
    (* Newest-first over the path ring — the historical list order. *)
    for i = 0 to q.path_len - 1 do
      let j = q.path_head - i in
      let j = if j < 0 then j + path_store else j in
      Server.merge_into_known_map s q.path_nodes.(j) q.path_maps.(j) ~now:time
    done
  end

and append_path_entry t s q =
  if
    t.config.Config.features.Config.caching
    && t.config.Config.cache_policy = Config.Path_propagation
  then
    match Server.find_hosted s q.target with
    | Some h ->
      path_append q q.target h.Server.h_map;
      (* Bound piggyback size, keeping the newest entries. *)
      path_truncate q
    | None -> ()

and process_query ?from t s q =
  let time = now t in
  absorb_path t s q;
  if q.hops > 0 && not (Server.hosts s q.target) then begin
    let m = met t in
    m.Metrics.stale_forwards <- m.Metrics.stale_forwards + 1;
    (* Stale-forward feedback — the alive-host dual of the bounce.  The
       sender's map entry claiming this server hosts [q.target] is wrong;
       tell it so, exactly as bounce-back failure detection does for dead
       hosts.  Without it, stale entries between {e alive} peers never
       decay and can bounce a query between two mutually-stale servers
       until its hop budget dies.  Modeled like the bounce: a sender-side
       state correction after one network delay, riding the transport
       layer rather than the request queues. *)
    let stale_target = q.target in
    match from with
    | Some sender when sender <> s.Server.id ->
      let self = s.Server.id in
      Engine.schedule ~owner:sender t.engine ~delay:t.config.Config.network_delay (fun () ->
          let snd = t.servers.(sender) in
          if snd.Server.alive then begin
            Server.forget_server snd stale_target self;
            reseed_delegation t snd stale_target
          end)
    | Some _ | None -> ()
  end;
  if Server.hosts s q.target then begin
    Server.touch_node s q.target ~now:time;
    q.best_dist <- min q.best_dist (Tree.distance t.tree q.target q.dst)
  end;
  let oracle =
    if t.config.Config.oracle_maps then Some (ground_truth_map t) else None
  in
  let rec route ~reseeded =
  match Routing.decide ~shortcut_bound:q.best_dist ?oracle s ~dst:q.dst with
  | Routing.Resolve ->
    Server.touch_node s q.dst ~now:time;
    (match Server.find_hosted s q.dst with
    | Some h ->
      path_append q q.dst h.Server.h_map;
      (* the lookup's result: the destination's map and meta-data *)
      q.result_map <- h.Server.h_map;
      q.result_meta <- h.Server.h_meta_version
    | None -> ());
    if q.src_server = s.Server.id then complete_query t s q
    else begin
      q.hops <- q.hops + 1;
      t.transport.send ~from:s.Server.id ~to_:q.src_server q.as_reply
    end
  | Routing.Forward { via_node; to_server; shortcut } ->
    (* Loop breaking.  A stale forward whose best candidate is no closer
       than the query has already reached would wander sideways — two peers
       with mutually-stale maps bounce such a query between them until the
       hop budget kills it.  Fall back on the namespace guarantee instead:
       route via the well-known root and descend the owner chain, which
       always progresses while owners are alive (owner entries are durable,
       merge-pinned, and filter-exempt). *)
    let via_node, to_server, shortcut =
      if
        shortcut || q.hops = 0
        || Server.hosts s q.target
        || Tree.distance t.tree via_node q.dst < q.best_dist
        || not (reseed_root_contact t s)
      then (via_node, to_server, shortcut)
      else
        match
          Option.bind
            (Cache.use s.Server.cache ~node:Tree.root)
            (fun map -> Node_map.random_server ~exclude:s.Server.id map s.Server.rng)
        with
        | Some root_server -> (Tree.root, root_server, false)
        | None -> (via_node, to_server, shortcut)
    in
    if shortcut then begin
      let m = met t in
      m.Metrics.shortcut_forwards <- m.Metrics.shortcut_forwards + 1
    end;
    append_path_entry t s q;
    let m = met t in
    m.Metrics.query_forwards <- m.Metrics.query_forwards + 1;
    q.hops <- q.hops + 1;
    if q.hops > t.hop_budget then finish_dropped t q Hop_budget
    else begin
      q.target <- via_node;
      q.best_dist <- min q.best_dist (Tree.distance t.tree via_node q.dst);
      if Obs.full_on t.obs then
        (* lint: obs-in-hot-path per-hop routing detail; full level only *)
        Obs.record t.obs ~server:s.Server.id
          (Event.Query_forwarded { qid = q.qid; via_node; to_server; shortcut });
      t.transport.send ~from:s.Server.id ~to_:to_server q.as_query
    end
  | Routing.Dead_end ->
    (* Last resort before stranding the query: fall back on the durable
       root contact once and re-decide (soft state rebuilds from there via
       the usual path-propagation machinery).  Bounded: at most one reseed
       per processing step, and every resulting forward consumes hops. *)
    if (not reseeded) && reseed_root_contact t s then route ~reseeded:true
    else finish_dropped t q Dead_end
  in
  route ~reseeded:false

(* A query attempt reached a terminal drop.  Only the newest attempt's
   fate finalizes the request: explicit drops of superseded attempts are
   discarded (a retransmission is already racing them), and drops of
   already-finalized requests are stale noise from the network.
   Finalization is issuer state (the pending table, the callback), so a
   drop detected on another server's context travels back to the issuer
   through [finalize_at] — the re-check happens there. *)
and finish_dropped t q reason =
  finalize_at t q.src_server (fun () ->
      (match Hashtbl.find_opt (pending_of t q.qid) q.qid with
      | Some r when q.attempt >= r.attempt -> give_up t q.qid r reason
      | Some _ | None -> ());
      (* Whatever the branch, this attempt's record is retired here — the
         closure took sole ownership when the drop was detected. *)
      free_query t q)

(* ------------------------------------------------------------------ *)
(* Request lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

(* Finalize a pending request without a result: the one exit for a
   lookup's terminal drop, a fetch whose holders are exhausted, and the
   last timer expiry of either.  [reason] is the lookup's drop reason; a
   fetch counts one [data_dropped] whatever the cause.  Runs on the
   issuer. *)
and give_up t id r reason =
  Hashtbl.remove (pending_of t id) id;
  match r.kind with
  | Lookup on_complete ->
    Metrics.drop (met t) reason ~now:(now t);
    if Obs.spans_on t.obs then
      (* lint: obs-in-hot-path terminal drop closes the span; spans level *)
      Obs.record t.obs ~server:r.issuer
        (Event.Query_dropped { qid = id; reason = drop_label reason });
    Option.iter (fun k -> k (Dropped reason)) on_complete
  | Fetch { on_done; _ } ->
    let m = met t in
    m.Metrics.data_dropped <- m.Metrics.data_dropped + 1;
    Option.iter (fun k -> k Fetch_failed) on_done

(* Start the request's current attempt at its issuer.  A lookup attempt is
   a fresh query record (fresh hop budget and path; [born] stays the
   original injection time so latency is end-to-end) handed straight to
   the issuer's queue.  A fetch attempt (§2.1 step two) asks one data
   holder not yet tried this failover round, and gives up when none is
   left. *)
and start_attempt t id r =
  match r.kind with
  | Lookup _ ->
    let q = t.transport.alloc_query () in
    q.qid <- id;
    q.src_server <- r.issuer;
    q.dst <- r.node;
    q.attempt <- r.attempt;
    Float.Array.set q.born 0 r.born;
    q.hops <- 0;
    q.target <- r.node;
    path_reset q;
    q.best_dist <- max_int;
    q.result_map <- Node_map.empty;
    q.result_meta <- 0;
    t.transport.enqueue q
  | Fetch { tried; _ } -> (
    let untried =
      Array.to_list t.data_holders.(r.node) |> List.filter (fun h -> not (Hashtbl.mem tried h))
    in
    match untried with
    | [] -> give_up t id r Dead_end
    | _ ->
      (* The holder choice draws from the {e client's} stream, so the
         sequence depends only on the client's own event order. *)
      let rng = t.servers.(r.issuer).Server.rng in
      let holder = List.nth untried (Splitmix.int rng (List.length untried)) in
      Hashtbl.replace tried holder ();
      t.transport.send ~from:r.issuer ~to_:holder
        (Data_request { fetch_id = id; node = r.node; client = r.issuer }))

(* A data request failed explicitly (dead or overloaded holder): fail over
   to another holder, from the issuer's context. *)
and fetch_retry t fetch_id =
  finalize_at t (id_owner fetch_id) (fun () ->
      match Hashtbl.find_opt (pending_of t fetch_id) fetch_id with
      | Some r -> start_attempt t fetch_id r
      | None -> ())

(* Ground truth for oracle routing: the servers that actually host a node
   right now.  A linear scan per call — acceptable because the oracle is an
   analysis reference run at small scales, never the protocol itself. *)
and ground_truth_map t node =
  let time = now t in
  Array.fold_left
    (fun acc s ->
      if s.Server.alive && Server.hosts s node then
        Node_map.add ~max:max_int acc
          {
            Node_map.server = s.Server.id;
            is_owner = t.owner_of.(node) = s.Server.id;
            stamp = time;
          }
      else acc)
    Node_map.empty t.servers

and complete_query t s q =
  (* Always runs on the issuer: a local resolve is at [q.src_server] and a
     [Query_reply] is delivered there. *)
  match Hashtbl.find_opt (pending_of t q.qid) q.qid with
  | Some { kind = Fetch _; _ } | None ->
    (* The request was already finalized (another attempt won the race, or
       the last timer expired): a duplicate result, discarded. *)
    let m = met t in
    m.Metrics.late_replies <- m.Metrics.late_replies + 1;
    free_query t q
  | Some ({ kind = Lookup on_complete; _ } as r) ->
    (* First resolution wins, whichever attempt carried it. *)
    Hashtbl.remove (pending_of t q.qid) q.qid;
    (* The source caches its lookup result even under endpoint-only caching;
       with path propagation it absorbs the whole route. *)
    absorb_path ~at_endpoint:true t s q;
    let latency = now t -. Float.Array.get q.born 0 in
    Metrics.resolve (met t) ~latency ~hops:q.hops;
    Stats.add t.lat_stats.(r.issuer) latency;
    Stats.add t.hops_stats.(r.issuer) (float_of_int q.hops);
    if Obs.spans_on t.obs then
      (* lint: obs-in-hot-path resolution closes the span; spans level *)
      Obs.record t.obs ~server:r.issuer
        (Event.Query_resolved { qid = q.qid; latency; hops = q.hops });
    (* Meta-data staleness at the resolving host, vs the owner's truth.
       The authoritative version lives in [t.meta_version] (updated only
       between events, by [Cluster.update_meta]), not read out of the
       owner server's records — those belong to another shard. *)
    Stats.add t.meta_lag_stats.(r.issuer)
      (float_of_int (max 0 (t.meta_version.(q.dst) - q.result_meta)));
    Option.iter
      (fun k ->
        k (Resolved { latency; hops = q.hops; map = q.result_map; meta_version = q.result_meta }))
      on_complete;
    (* The winning attempt's record retires after the callback captured its
       result values (the map is an immutable Node_map, safe to share). *)
    free_query t q

(* ------------------------------------------------------------------ *)
(* Replication protocol driver (§3.3)                                  *)
(* ------------------------------------------------------------------ *)

and maybe_start_session t s =
  if Replication.should_start s ~now:(now t) then begin
    let m = met t in
    m.Metrics.sessions_started <- m.Metrics.sessions_started + 1;
    let sess = { Server.session_id = next_id t s.Server.id; tried = []; attempts = 0 } in
    s.Server.session <- Some sess;
    probe_next_peer t s sess
  end

and abort_session t s =
  let m = met t in
  m.Metrics.sessions_aborted <- m.Metrics.sessions_aborted + 1;
  (match s.Server.session with
  | Some sess when Obs.counters_on t.obs ->
    (* lint: obs-in-hot-path session aborts are rare; counters level *)
    Obs.record t.obs ~server:s.Server.id
      (Event.Session_aborted { session = sess.Server.session_id })
  | Some _ | None -> ());
  s.Server.session <- None;
  Server.set_session_backoff_until s (now t +. retry_delay)

and probe_next_peer t s sess =
  match Server.min_load_peer s ~exclude:(s.Server.id :: sess.Server.tried) with
  | None -> abort_session t s
  | Some (peer, _believed) ->
    if sess.Server.attempts = 0 && Obs.counters_on t.obs then
      (* lint: obs-in-hot-path at most one start per session; counters level *)
      Obs.record t.obs ~server:s.Server.id
        (Event.Session_started { session = sess.Server.session_id; peer });
    sess.Server.tried <- peer :: sess.Server.tried;
    sess.Server.attempts <- sess.Server.attempts + 1;
    t.transport.send ~from:s.Server.id ~to_:peer (Load_probe { session = sess.Server.session_id });
    (* Recover from lost probes/replies (dead peers): abort if no progress
       before a generous round-trip budget. *)
    let attempts_at_send = sess.Server.attempts in
    let timeout = (4.0 *. t.config.Config.network_delay) +. 0.5 in
    Engine.schedule ~owner:s.Server.id t.engine ~delay:timeout (fun () ->
        match s.Server.session with
        | Some cur
          when cur.Server.session_id = sess.Server.session_id
               && cur.Server.attempts = attempts_at_send ->
          abort_session t s
        | Some _ | None -> ())

and handle_load_reply t s ~peer ~session ~peer_load =
  match s.Server.session with
  | Some sess when sess.Server.session_id = session ->
    Server.note_peer_load s peer peer_load;
    let time = now t in
    let l_source = Load_meter.load s.Server.load time in
    if Replication.acceptable ~config:t.config ~l_source ~l_dest:peer_load then begin
      let nodes = Replication.select_nodes s ~l_source ~l_dest:peer_load ~now:time in
      let payloads = List.filter_map (fun n -> Server.make_replica_payload s n) nodes in
      if payloads = [] then abort_session t s
      else begin
        t.transport.send ~from:s.Server.id ~to_:peer (Replicate { session; replicas = payloads });
        List.iter (fun n -> Server.record_new_replica s n peer ~now:time) nodes;
        Load_meter.set_adjustment s.Server.load
          (Replication.adjusted_load ~l_source ~l_dest:peer_load);
        s.Server.session <- None;
        (* Let the shed divert traffic before considering another one. *)
        Server.set_session_backoff_until s (time +. success_cooldown)
      end
    end
    else if sess.Server.attempts >= max_attempts then abort_session t s
    else probe_next_peer t s sess
  | Some _ | None -> () (* stale reply from an expired session *)

and handle_replicate t s ~sender ~sender_load replicas =
  let time = now t in
  let installed = ref 0 in
  let evicted_before = s.Server.replicas_evicted in
  List.iter
    (fun payload ->
      match Server.install_replica s payload ~now:time with
      | `Installed ->
        incr installed;
        if Obs.counters_on t.obs then
          (* lint: obs-in-hot-path replica churn is rare; counters level *)
          Obs.record t.obs ~server:s.Server.id
            (Event.Replica_created { node = payload.rp_node; from_server = sender });
        Metrics.replica_created (met t) ~now:time;
        let level = Tree.depth t.tree payload.rp_node in
        let per_level = t.replicas_created_per_level.(Engine.lane_index t.engine) in
        per_level.(level) <- per_level.(level) + 1
      | `Merged | `Rejected -> ())
    replicas;
  (* Rank-based evictions performed to make room (§3.5). *)
  let m = met t in
  m.Metrics.replicas_evicted <-
    m.Metrics.replicas_evicted + (s.Server.replicas_evicted - evicted_before);
  if !installed > 0 then
    (* §3.3 step 4, receiver side: assume the ideal post-shed load until the
       next measurement window lands. *)
    Load_meter.set_adjustment s.Server.load
      (Replication.adjusted_load ~l_source:sender_load
         ~l_dest:(Load_meter.load s.Server.load time))

(* Arm the current attempt's timer.  Timers only catch silent loss:
   explicit terminal drops finalize the request immediately, so with an
   ideal network a timer never changes behavior — it either finds the
   request finalized or its attempt superseded, and does nothing.  A fetch
   whose every holder was tried starts over across all of them. *)
let rec arm_timer t id =
  let cfg = t.config in
  if cfg.Config.rpc_timeout > 0.0 then
    match Hashtbl.find_opt (pending_of t id) id with
    | None -> ()
    | Some r ->
      let attempt = r.attempt in
      (* The timer is issuer state and runs on the issuer's lane. *)
      Engine.schedule ~owner:r.issuer t.engine ~delay:(Config.attempt_timeout cfg ~attempt)
        (fun () ->
          match Hashtbl.find_opt (pending_of t id) id with
          | Some cur when cur.attempt = attempt ->
            if attempt >= cfg.Config.max_retries then give_up t id cur Timed_out
            else begin
              cur.attempt <- attempt + 1;
              let m = met t in
              (match cur.kind with
              | Lookup _ ->
                m.Metrics.query_retransmits <- m.Metrics.query_retransmits + 1;
                if Obs.spans_on t.obs then
                  (* lint: obs-in-hot-path timer-driven retries are rare; spans level *)
                  Obs.record t.obs ~server:cur.issuer
                    (Event.Retransmit { qid = id; attempt = attempt + 1 })
              | Fetch { tried; _ } ->
                m.Metrics.fetch_retransmits <- m.Metrics.fetch_retransmits + 1;
                if Array.for_all (Hashtbl.mem tried) t.data_holders.(cur.node) then
                  Hashtbl.reset tried);
              start_attempt t id cur;
              arm_timer t id
            end
          | Some _ | None -> ())

(* Register a request at its issuer, start its first attempt and arm its
   timer.  The first outcome of any attempt finalizes it, exactly once. *)
let issue t id r =
  Hashtbl.add (pending_of t id) id r;
  start_attempt t id r;
  arm_timer t id

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)
(* ------------------------------------------------------------------ *)

let drop_unserved t reason = function
  | Query q -> finish_dropped t q reason
  | Query_reply q -> free_query t q
  | Data_request { fetch_id; _ } -> fetch_retry t fetch_id
  | Load_probe _ | Load_reply _ | Replicate _ | Data_reply _ -> ()

let crash s =
  List.iter (fun node -> Server.evict_replica s node) (Server.replica_nodes s);
  Cache.clear s.Server.cache;
  Server.forget_all_peers s;
  s.Server.session <- None

let handoff t ~node ~to_ =
  if node < 0 || node >= Tree.size t.tree then invalid_arg "Cluster.handoff: bad node";
  if to_ < 0 || to_ >= Array.length t.servers then invalid_arg "Cluster.handoff: bad recipient";
  let donor = t.servers.(t.owner_of.(node)) in
  let recipient = t.servers.(to_) in
  if not recipient.Server.alive then invalid_arg "Cluster.handoff: recipient is dead";
  (match Server.find_hosted recipient node with
  | Some h when h.Server.h_kind = Server.Owned -> invalid_arg "Cluster.handoff: already the owner"
  | Some _ | None -> ());
  let time = now t in
  let payload =
    match Server.make_replica_payload donor node with
    | Some p -> p
    | None -> invalid_arg "Cluster.handoff: donor does not host the node"
  in
  Server.remove_owned donor node;
  Server.install_owned recipient payload ~now:time;
  t.owner_of.(node) <- to_;
  (* data moves with ownership *)
  let holders = t.data_holders.(node) in
  Array.iteri (fun i h -> if h = donor.Server.id then holders.(i) <- to_) holders;
  if not (Array.exists (fun h -> h = to_) holders) then holders.(0) <- to_;
  (* the donor remembers where the node went (soft pointer, like any cache
     entry) so in-flight traffic it receives re-routes in one hop *)
  let new_owner_map = Node_map.singleton ~is_owner:true ~server:to_ ~stamp:time () in
  Cache.insert donor.Server.cache ~node new_owner_map;
  (* the handoff protocol notifies the owners of the node's tree-neighbors
     (the donor holds their maps): without this, routing toward the node
     dead-ends once bounce-pruning clears the stale owner from adjacent
     contexts — everyone else converges lazily via path propagation *)
  List.iter
    (fun nb ->
      let nb_owner = t.servers.(t.owner_of.(nb)) in
      Server.merge_into_known_map nb_owner node new_owner_map ~now:time)
    (Tree.neighbors t.tree node)
