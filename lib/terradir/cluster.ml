open Terradir_util
open Terradir_namespace
open Terradir_sim
open Types
module Obs = Terradir_obs.Obs
module Event = Terradir_obs.Event
module Probes = Terradir_obs.Probes

(* Stable labels for the flight recorder; event payloads carry strings so
   the obs library stays below [Types]. *)
let drop_label = function
  | Queue_full -> "queue_full"
  | Hop_budget -> "hop_budget"
  | Dead_end -> "dead_end"
  | Server_dead -> "server_dead"
  | Timed_out -> "timed_out"

(* Fixed model constants (§4.1): no experiment varies them. *)

(* Service time of a control message: replies, load probes and replies,
   replicate transfers. *)
let ctrl_service = 0.002

(* Mean exponential service time of a data fetch. *)
let data_service_mean = 0.040

(* Period of each server's idle-replica scan. *)
let eviction_scan_period = 10.0

(* Random peers each server knows at bootstrap, believed idle. *)
let bootstrap_peers = 8

(* Auditor cadence, in executed engine events. *)
let audit_every = 10_000

(* Replication sessions (§3.3): destination servers tried per session, the
   pause after an aborted session, and the pause after a successful shed
   before the next one — it gives the shed time to divert traffic (with
   only the one-window hysteresis adjustment, a persistently hot server
   would otherwise open a session per load window and thrash). *)
let max_attempts = 3

let retry_delay = 1.0

let success_cooldown = 1.0

type fetch_outcome = Fetched of { latency : float } | Fetch_failed

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

type t = {
  engine : Engine.t;
  config : Config.t;
  tree : Tree.t;
  servers : Server.t array;
  owner_of : server_id array;
  rng : Splitmix.t;
  net : Net.t;
  obs : Obs.t;
  lane_metrics : Metrics.t array;
  lat_stats : Stats.t array;
  hops_stats : Stats.t array;
  data_lat_stats : Stats.t array;
  meta_lag_stats : Stats.t array;
  hop_budget : int;
  replicas_created_per_level : int array array;
  data_holders : server_id array array;
  shard_ix : int array;
  pending : (int, request) Hashtbl.t array;
  id_seq : int array;
  meta_version : int array;
  epochs : int array;
  msg_pool : message Freelist.t array;
  query_pool : query Freelist.t array;
  audit : Invariant.t option;
}

let now t = Engine.now t.engine

(* The executing lane's metrics part.  Every counter bump lands in the
   part owned by the domain running the current event, so parts never
   race; [metrics] folds them back into one struct. *)
let met t = t.lane_metrics.(Engine.lane_index t.engine)

let fold_stats arr = Array.fold_left Stats.merge (Stats.create ()) arr

(* ------------------------------------------------------------------ *)
(* Hot-path object pools                                               *)
(* ------------------------------------------------------------------ *)

(* Message and query records are recycled through per-lane free lists, so
   steady-state traffic allocates neither.  Ownership follows the record:
   whichever lane retires one frees it into its OWN lane's pool (records
   migrate between pools as traffic crosses lanes), so pools are
   single-owner within a window exactly like [lane_metrics] and need no
   atomics.  Each record reaches exactly one terminal point — enumerated
   at the [free_msg]/[free_query] call sites — and the scrubs below drop
   every reference (maps, blooms, payloads) so pooled records retain
   nothing across reuse.  Pooling is invisible to the trajectory: records
   are plain containers, and no RNG draw or event order depends on them. *)

let lane_pool t pools = pools.(Engine.lane_index t.engine)

let free_msg t m =
  m.msg_to <- -1;
  m.msg_digest <- None;
  m.msg_payload <- null_payload;
  Freelist.put (lane_pool t t.msg_pool) m

let alloc_query t ~qid ~src ~dst ~attempt ~born =
  let p = lane_pool t t.query_pool in
  let q = if Freelist.is_empty p then fresh_query () else Freelist.pop p in
  q.qid <- qid;
  q.src_server <- src;
  q.dst <- dst;
  q.attempt <- attempt;
  Float.Array.set q.born 0 born;
  q.hops <- 0;
  q.target <- dst;
  path_reset q;
  q.best_dist <- max_int;
  q.result_map <- Node_map.empty;
  q.result_meta <- 0;
  q

let free_query t q =
  path_scrub q;
  q.result_map <- Node_map.empty;
  Freelist.put (lane_pool t t.query_pool) q

let metrics t =
  Metrics.merged
    ~parts:(Array.to_list t.lane_metrics)
    ~latency:(fold_stats t.lat_stats) ~hops:(fold_stats t.hops_stats)
    ~data_latency:(fold_stats t.data_lat_stats) ~meta_lag:(fold_stats t.meta_lag_stats)

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

(* One full audit pass over engine time, every server, and ownership
   placement — runs between events (engine observer) and at the end of
   every [run_until]. *)
let audit_pass t a =
  Invariant.check_cluster a ~now:(now t) ~next_event:(Engine.next_time t.engine)
    ~servers:t.servers ~owner_of:t.owner_of

let server t sid = t.servers.(sid)

let num_servers t = Array.length t.servers

let features t = t.config.Config.features

(* The root's owner is durable bootstrap configuration (the same DNS-style
   hint [seed_root_hint] installs at join time), not soft state.  A server
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
(* Messaging                                                           *)
(* ------------------------------------------------------------------ *)

(* A message's two event thunks are built here, once per record, and
   survive every recycling: the steady-state message path schedules them
   instead of allocating a closure per event. *)
let rec alloc_msg t ~from ~to_ ~load ~digest_version ~digest payload =
  let p = lane_pool t t.msg_pool in
  if Freelist.is_empty p then begin
    let m =
      {
        msg_from = from;
        msg_to = to_;
        msg_epoch = 0;
        msg_load = Float.Array.make 1 load;
        msg_digest_version = digest_version;
        msg_digest = digest;
        msg_payload = payload;
        msg_deliver = ignore;
        msg_served = ignore;
      }
    in
    m.msg_deliver <- (fun () -> deliver t m);
    m.msg_served <- (fun () -> served t m);
    m
  end
  else begin
    let m = Freelist.pop p in
    m.msg_from <- from;
    m.msg_to <- to_;
    Float.Array.set m.msg_load 0 load;
    m.msg_digest_version <- digest_version;
    m.msg_digest <- digest;
    m.msg_payload <- payload;
    m
  end

and send t ~from ~to_ payload =
  let s = t.servers.(from) in
  let version = Digest_store.local_version s.Server.digests in
  let digest =
    if
      (features t).Config.digests
      && Digest_store.last_version_sent s.Server.digests ~peer:to_ < version
    then begin
      Digest_store.note_version_sent s.Server.digests ~peer:to_ version;
      Some (Digest_store.local s.Server.digests)
    end
    else None
  in
  (* The paper's "load balancing messages": probes, replies, transfers —
     not query replies, which are part of the lookup itself. *)
  (match payload with
  | Load_probe _ | Load_reply _ | Replicate _ ->
    let m = met t in
    m.Metrics.control_messages <- m.Metrics.control_messages + 1
  | Query _ | Query_reply _ | Data_request _ | Data_reply _ -> ());
  (* The network decides: silent loss and partitions vanish the message —
     the sender learns nothing, so recovery is the issuer's timer's job.
     The message record is only built for deliveries the network makes
     ([Load_meter.load] is an idempotent window roll, so reading it after
     the transmit draw — or not at all on a loss — changes nothing). *)
  match Net.transmit t.net ~src:from ~dst:to_ with
  | Net.Delivered delay ->
    (match payload with
    | (Query q | Query_reply q) when Obs.spans_on t.obs ->
      (* lint: obs-in-hot-path span skeleton wire segment; spans level *)
      Obs.record t.obs ~server:from
        (Event.Net_transit { qid = q.qid; attempt = q.attempt; dst_server = to_; delay })
    | Query _ | Query_reply _ | Load_probe _ | Load_reply _ | Replicate _ | Data_request _
    | Data_reply _ -> ());
    let msg =
      alloc_msg t ~from ~to_
        ~load:(Load_meter.load s.Server.load (now t))
        ~digest_version:version ~digest payload
    in
    Engine.schedule ~owner:to_ t.engine ~delay msg.msg_deliver
  | (Net.Lost | Net.Blocked) as verdict -> (
    let m = met t in
    (match verdict with
    | Net.Lost -> m.Metrics.net_lost <- m.Metrics.net_lost + 1
    | Net.Blocked | Net.Delivered _ -> m.Metrics.net_blocked <- m.Metrics.net_blocked + 1);
    (* A silently-lost query attempt is this record's terminal point: the
       issuer's timer retransmits with a fresh record. *)
    match payload with
    | Query q | Query_reply q -> free_query t q
    | Load_probe _ | Load_reply _ | Replicate _ | Data_request _ | Data_reply _ -> ())

(* Arrival at [msg.msg_to]. *)
and deliver t msg =
  let to_ = msg.msg_to in
  if to_ < 0 then invalid_arg "Cluster: delivery of a freed message";
  let s = t.servers.(to_) in
  if not s.Server.alive then bounce t ~dead:to_ msg
  else begin
    if msg.msg_from <> to_ then
      Server.note_peer_load s msg.msg_from (Float.Array.get msg.msg_load 0);
    (match msg.msg_digest with
    | Some bloom when (features t).Config.digests && msg.msg_from <> to_ ->
      Digest_store.record_remote s.Server.digests ~server:msg.msg_from
        ~version:msg.msg_digest_version bloom
    | Some _ | None -> ());
    let queue_full () = Queue.length s.Server.queue >= Server.queue_capacity in
    (match msg.msg_payload with
    | Query q ->
      if queue_full () then begin
        finish_dropped t q Queue_full;
        free_msg t msg
      end
      else begin
        if Obs.spans_on t.obs then
          (* lint: obs-in-hot-path span skeleton queue entry; spans level *)
          Obs.record t.obs ~server:to_ (Event.Queue_enter { qid = q.qid; attempt = q.attempt });
        Queue.add msg s.Server.queue;
        kick t to_
      end
    | Data_request { fetch_id; _ } ->
      if queue_full () then begin
        fetch_retry t fetch_id;
        free_msg t msg
      end
      else begin
        Queue.add msg s.Server.queue;
        kick t to_
      end
    | Query_reply _ | Load_probe _ | Load_reply _ | Replicate _ | Data_reply _ ->
      (match msg.msg_payload with
      | Query_reply q when Obs.spans_on t.obs ->
        (* lint: obs-in-hot-path the reply leg's queue wait; spans level *)
        Obs.record t.obs ~server:to_ (Event.Queue_enter { qid = q.qid; attempt = q.attempt })
      | _ -> ());
      Queue.add msg s.Server.ctrl_queue;
      kick t to_)
  end

(* A message reached a dead server.  Queries bounce back to the sender
   (failure detection), which prunes the dead host and retries; control
   messages are simply lost (session timeouts recover). *)
and bounce t ~dead msg =
  match msg.msg_payload with
  | Query q ->
    let sender = msg.msg_from in
    Engine.schedule ~owner:sender t.engine ~delay:t.config.Config.network_delay (fun () ->
        let s = t.servers.(sender) in
        if not s.Server.alive then begin
          finish_dropped t q Server_dead;
          free_msg t msg
        end
        else begin
          Server.forget_server s q.target dead;
          Server.forget_peer s dead;
          reseed_delegation t s q.target;
          q.hops <- q.hops + 2;
          if q.hops > t.hop_budget then begin
            finish_dropped t q Hop_budget;
            free_msg t msg
          end
          else begin
            (* Reuse the bounced record in place: the sender re-queues it
               without the digest (it already sent its current version). *)
            msg.msg_from <- sender;
            msg.msg_to <- sender;
            msg.msg_digest <- None;
            deliver t msg
          end
        end)
  | Query_reply q ->
    (* The originator died; its lookup dies with it. *)
    finish_dropped t q Server_dead;
    free_msg t msg
  | Data_request { fetch_id; _ } ->
    fetch_retry t fetch_id;
    free_msg t msg
  | Load_probe _ | Load_reply _ | Replicate _ | Data_reply _ -> free_msg t msg

(* ------------------------------------------------------------------ *)
(* Service loop                                                        *)
(* ------------------------------------------------------------------ *)

and kick t sid =
  let s = t.servers.(sid) in
  if s.Server.alive && not s.Server.serving then begin
    let from =
      if not (Queue.is_empty s.Server.ctrl_queue) then s.Server.ctrl_queue else s.Server.queue
    in
    if not (Queue.is_empty from) then begin
      let msg = Queue.pop from in
      s.Server.serving <- true;
      if Obs.counters_on t.obs && not s.Server.obs_busy then begin
        s.Server.obs_busy <- true;
        (* lint: obs-in-hot-path idle->busy edge only, not per request; counters level *)
        Obs.record t.obs ~server:sid
          (Event.Server_busy { queue_depth = Queue.length s.Server.queue })
      end;
      (match msg.msg_payload with
      | (Query q | Query_reply q) when Obs.spans_on t.obs ->
        (* lint: obs-in-hot-path span skeleton service start; spans level *)
        Obs.record t.obs ~server:sid (Event.Service_begin { qid = q.qid; attempt = q.attempt })
      | _ -> ());
      Load_meter.begin_busy s.Server.load (now t);
      let duration =
        (match msg.msg_payload with
        | Query _ -> Splitmix.exponential s.Server.rng t.config.Config.service_mean
        | Data_request _ -> Splitmix.exponential s.Server.rng data_service_mean
        | Query_reply _ | Load_probe _ | Load_reply _ | Replicate _ | Data_reply _ ->
          ctrl_service)
        /. s.Server.speed
      in
      msg.msg_epoch <- t.epochs.(sid);
      Engine.schedule ~owner:sid t.engine ~delay:duration msg.msg_served
    end
  end

(* End of service at [msg.msg_to]. *)
and served t msg =
  let sid = msg.msg_to in
  if sid < 0 then invalid_arg "Cluster: service completion of a freed message";
  let s = t.servers.(sid) in
  if t.epochs.(sid) = msg.msg_epoch && s.Server.alive then begin
    Load_meter.end_busy s.Server.load (now t);
    s.Server.serving <- false;
    (match msg.msg_payload with
    | (Query q | Query_reply q) when Obs.spans_on t.obs ->
      (* lint: obs-in-hot-path span skeleton service end; spans level *)
      Obs.record t.obs ~server:sid (Event.Service_end { qid = q.qid; attempt = q.attempt })
    | _ -> ());
    process t sid msg;
    (* [process] consumed the message; any query inside reached its own
       terminal point (completion, drop, or forward). *)
    free_msg t msg;
    kick t sid;
    (* [obs_busy] is only ever set while the counters level is on, so the
       drain edge below cannot fire with a disabled sink. *)
    if s.Server.obs_busy && not s.Server.serving then begin
      s.Server.obs_busy <- false;
      (* lint: obs-in-hot-path busy->idle edge only; counters level *)
      Obs.record t.obs ~server:sid Event.Server_idle
    end
  end
  else
    (* The server died (epoch bumped) with this message in service: it
       was already popped from the queue, so this event is the sole owner.
       A query inside is left to the GC — its issuer's timer recovers the
       request; recycling it here would risk a double-free if a revive
       raced the service completion. *)
    free_msg t msg

(* ------------------------------------------------------------------ *)
(* Message processing                                                  *)
(* ------------------------------------------------------------------ *)

and process t sid msg =
  let s = t.servers.(sid) in
  (match msg.msg_payload with
  | Query q -> process_query ~from:msg.msg_from t s q
  | Query_reply q -> complete_query t s q
  | Load_probe { session } ->
    send t ~from:sid ~to_:msg.msg_from
      (Load_reply { session; load = Load_meter.load s.Server.load (now t) })
  | Load_reply { session; load } -> handle_load_reply t s ~peer:msg.msg_from ~session ~peer_load:load
  | Replicate { session = _; replicas } ->
    handle_replicate t s ~sender:msg.msg_from ~sender_load:(Float.Array.get msg.msg_load 0) replicas
  | Data_request { fetch_id; node; client } ->
    (* Data is durable at its holders (like ownership); serving it is pure
       busy time, already accounted by this service slot. *)
    send t ~from:sid ~to_:client (Data_reply { fetch_id; node })
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
    (features t).Config.caching
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
      send t ~from:s.Server.id ~to_:q.src_server q.as_reply
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
      send t ~from:s.Server.id ~to_:to_server q.as_query
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
    let q = alloc_query t ~qid:id ~src:r.issuer ~dst:r.node ~attempt:r.attempt ~born:r.born in
    deliver t
      (alloc_msg t ~from:r.issuer ~to_:r.issuer ~load:0.0 ~digest_version:0 ~digest:None
         q.as_query)
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
      send t ~from:r.issuer ~to_:holder
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
       between events, by [update_meta]/owner writes), not read out of the
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
    send t ~from:s.Server.id ~to_:peer (Load_probe { session = sess.Server.session_id });
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
        send t ~from:s.Server.id ~to_:peer (Replicate { session; replicas = payloads });
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

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* DNS-style root hint for a server with no state of its own (bootstrap,
   or a crash-revived server that owned nothing). *)
let seed_root_hint owner_of (s : Server.t) =
  if s.Server.owned_count = 0 && not (Server.hosts s Tree.root) then
    Cache.insert s.Server.cache ~node:Tree.root
      (Node_map.singleton ~is_owner:true ~server:owner_of.(Tree.root) ~stamp:0.0 ())

let place_owners config tree rng =
  let n = Tree.size tree and s = config.Config.num_servers in
  match config.Config.placement with
  | Config.Uniform -> Array.init n (fun _ -> Splitmix.int rng s)
  | Config.Round_robin ->
    let order = Splitmix.permutation rng n in
    let owners = Array.make n 0 in
    Array.iteri (fun rank node -> owners.(node) <- rank mod s) order;
    owners

let create ?(monitor = true) ?(obs = Obs.null) ?shard_of ~config ~tree () =
  Config.validate config;
  let rng = Splitmix.create config.Config.seed in
  let engine = Engine.create () in
  let owner_of = place_owners config tree rng in
  (* Heterogeneous capacities: log-uniform speeds, normalized to mean 1 so
     the cluster's aggregate capacity does not depend on the spread. *)
  let speeds =
    let spread = config.Config.speed_spread in
    if spread = 1.0 then Array.make config.Config.num_servers 1.0
    else begin
      let raw =
        Array.init config.Config.num_servers (fun _ ->
            exp (Splitmix.float rng (2.0 *. log spread) -. log spread))
      in
      let mean = Array.fold_left ( +. ) 0.0 raw /. float_of_int (Array.length raw) in
      Array.map (fun v -> v /. mean) raw
    end
  in
  let servers =
    Array.init config.Config.num_servers (fun id ->
        Server.create ~speed:speeds.(id) ~id ~config ~tree ~obs ~rng:(Splitmix.split rng) ())
  in
  (* Static data placement: owner first, then distinct extra holders. *)
  let data_holders =
    Array.mapi
      (fun _node owner ->
        let extras = min (config.Config.data_copies - 1) (config.Config.num_servers - 1) in
        let holders = ref [ owner ] in
        while List.length !holders < extras + 1 do
          let candidate = Splitmix.int rng config.Config.num_servers in
          if not (List.mem candidate !holders) then holders := candidate :: !holders
        done;
        Array.of_list (List.rev !holders))
      owner_of
  in
  (* The network gets its own seed-derived stream (not a [split] of the
     main one) so an ideal-network run draws exactly the seed's sequence. *)
  let net =
    let latency =
      if config.Config.net_jitter > 0.0 then
        Net.Uniform { base = config.Config.network_delay; jitter = config.Config.net_jitter }
      else Net.Constant config.Config.network_delay
    in
    Net.create ~loss:config.Config.net_loss ~latency ~obs ~peers:config.Config.num_servers
      ~rng:(Splitmix.create (config.Config.seed lxor 0x4e455431)) ()
  in
  (* Effective domain count: multi-domain needs a positive lookahead
     (the minimum network latency bounds how far a shard may run ahead)
     and shard-local reads — oracle routing scans every server, so it
     pins the sequential engine.  The observable outputs are identical
     either way; only wall-clock changes. *)
  let k =
    let requested = config.Config.engine_domains in
    if requested <= 1 || config.Config.oracle_maps || Net.min_latency net <= 0.0 then 1
    else min requested config.Config.num_servers
  in
  let shard_ix =
    let assign = match shard_of with Some f -> f | None -> fun sid -> sid mod k in
    Array.init config.Config.num_servers (fun sid -> if k = 1 then 0 else assign sid)
  in
  Engine.configure engine ~domains:k ~lookahead:(Net.min_latency net) ~shard_of:shard_ix;
  let lanes = Engine.lane_count engine in
  (* Per-lane flight recording, stamped with the engine's canonical event
     key so the merged view at K >= 2 matches the K = 1 ring; a null sink
     ignores it (shared across clusters and domains). *)
  Obs.attach obs ~lanes ~stamp:(fun () -> Engine.stamp engine);
  (* The metrics once drew from a stream of their own; the split stays
     because removing the draw would shift every later draw from [rng]. *)
  ignore (Splitmix.split rng : Splitmix.t);
  let t =
    {
      engine;
      config;
      tree;
      servers;
      owner_of;
      rng;
      net;
      obs;
      lane_metrics = Array.init lanes (fun _ -> Metrics.create ());
      lat_stats = Array.init config.Config.num_servers (fun _ -> Stats.create ());
      hops_stats = Array.init config.Config.num_servers (fun _ -> Stats.create ());
      data_lat_stats = Array.init config.Config.num_servers (fun _ -> Stats.create ());
      meta_lag_stats = Array.init config.Config.num_servers (fun _ -> Stats.create ());
      hop_budget = (4 * Tree.max_depth tree) + 16;
      replicas_created_per_level =
        Array.init lanes (fun _ -> Array.make (Tree.max_depth tree + 1) 0);
      data_holders;
      shard_ix;
      pending = Array.init (max 1 k) (fun _ -> Hashtbl.create 256);
      id_seq = Array.make config.Config.num_servers 0;
      meta_version = Array.make (Tree.size tree) 0;
      epochs = Array.make config.Config.num_servers 0;
      msg_pool = Array.init lanes (fun _ -> Freelist.create ());
      query_pool = Array.init lanes (fun _ -> Freelist.create ());
      audit = (if Invariant.enabled () then Some (Invariant.create ()) else None);
    }
  in
  (match t.audit with
  | Some a -> Engine.add_observer t.engine ~every:audit_every (fun () -> audit_pass t a)
  | None -> ());
  (* Per-server probe series on the engine-observer cadence: raw load,
     queue depth, replica count, cache hit rate.  Pure reads — consumes no
     randomness and schedules nothing, so the event order is untouched. *)
  if Obs.counters_on obs then
    Engine.add_observer t.engine ~every:(Obs.probe_every obs) (fun () ->
        let time = now t in
        Array.iter
          (fun s ->
            if s.Server.alive then
              Probes.add (Obs.probes obs) ~server:s.Server.id
                {
                  Probes.p_time = time;
                  p_load = Load_meter.raw_load s.Server.load time;
                  p_queue = Queue.length s.Server.queue;
                  p_replicas = s.Server.replica_count;
                  p_hit_rate = Cache.hit_rate s.Server.cache;
                })
          t.servers);
  (* Bootstrap ownership and per-node routing contexts.  One owner
     singleton per node serves as its owner's hosted map and as every
     tree-neighbor's context for it: maps are immutable, and merging a map
     into itself returns it. *)
  let owner_maps =
    Array.map (fun owner -> Node_map.singleton ~is_owner:true ~server:owner ~stamp:0.0 ()) owner_of
  in
  Array.iteri
    (fun node owner -> Server.add_owned servers.(owner) node ~owner_map:(Array.get owner_maps))
    owner_of;
  (* Bootstrap contact: under uniform placement a server can own zero
     nodes and would otherwise know nothing at all — queries injected
     there would dead-end.  Like DNS root hints, such a server joins
     knowing the root's owner (a permanent entry while nothing displaces
     it; once traffic flows, path propagation keeps it routable). *)
  Array.iter (fun s -> seed_root_hint owner_of s) servers;
  (* Each server starts off knowing a few random peers (believed idle), so
     replication sessions have somewhere to look before traffic teaches
     them real loads. *)
  let s_count = Array.length servers in
  Array.iter
    (fun s ->
      for _ = 1 to min bootstrap_peers (s_count - 1) do
        let peer = Splitmix.int rng s_count in
        if peer <> s.Server.id then Server.note_peer_load s peer 0.0
      done)
    servers;
  if monitor then begin
    (* Per-second load sampling for the Fig. 6 series.  It reads every
       server, so it runs in the sync context — solo, all lanes idle —
       and its series land in one lane's part (single writer). *)
    let rec sample () =
      let time = now t in
      let sum = ref 0.0 and mx = ref 0.0 and alive = ref 0 in
      Array.iter
        (fun s ->
          if s.Server.alive then begin
            let l = Load_meter.raw_load s.Server.load time in
            sum := !sum +. l;
            if l > !mx then mx := l;
            incr alive
          end)
        servers;
      if !alive > 0 then begin
        let m = met t in
        Timeseries.add m.Metrics.load_mean_ts time (!sum /. float_of_int !alive);
        Timeseries.observe_max m.Metrics.load_max_ts time !mx
      end;
      Engine.schedule ~owner:Engine.sync_ctx t.engine ~delay:1.0 sample
    in
    Engine.schedule ~owner:Engine.sync_ctx t.engine ~delay:0.5 sample;
    (* Soft-state decay: periodic idle-replica eviction, staggered across
       servers to avoid synchronized scan storms. *)
    Array.iter
      (fun s ->
        let rec scan () =
          if s.Server.alive then begin
            let evicted = Server.idle_scan s ~now:(now t) in
            let m = met t in
            m.Metrics.replicas_evicted <-
              m.Metrics.replicas_evicted + List.length evicted
          end;
          Engine.schedule ~owner:s.Server.id t.engine ~delay:eviction_scan_period scan
        in
        let phase = Splitmix.float rng eviction_scan_period in
        Engine.schedule ~owner:s.Server.id t.engine ~delay:phase scan)
      servers
  end;
  t

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)
(* ------------------------------------------------------------------ *)

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
      let timeout =
        Net.backoff ~base:cfg.Config.rpc_timeout ~factor:cfg.Config.retry_backoff ~attempt
      in
      (* The timer is issuer state and runs on the issuer's lane. *)
      Engine.schedule ~owner:r.issuer t.engine ~delay:timeout (fun () ->
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

let inject ?on_complete t ~src ~dst =
  if src < 0 || src >= num_servers t then invalid_arg "Cluster.inject: bad source server";
  if dst < 0 || dst >= Tree.size t.tree then invalid_arg "Cluster.inject: bad destination node";
  let time = now t in
  let m = met t in
  m.Metrics.injected <- m.Metrics.injected + 1;
  Timeseries.incr m.Metrics.injected_ts time;
  let qid = next_id t src in
  if Obs.spans_on t.obs then
    (* lint: obs-in-hot-path span root; spans level *)
    Obs.record t.obs ~server:src (Event.Query_injected { qid; dst });
  issue t qid { issuer = src; node = dst; born = time; attempt = 0; kind = Lookup on_complete }

let inject_uniform_src ?on_complete t ~dst =
  let s_count = num_servers t in
  let rec pick tries =
    let src = Splitmix.int t.rng s_count in
    if t.servers.(src).Server.alive || tries > 32 then src else pick (tries + 1)
  in
  let src = pick 0 in
  inject ?on_complete t ~src ~dst;
  src

let run_until t time =
  Engine.run ~until:time t.engine;
  (* End-of-run audit: a final full pass, then deliver whatever this and
     the cadence passes collected (raising under the test suite's default
     mode, stashing a report under the CLI's --audit). *)
  match t.audit with
  | None -> ()
  | Some a ->
    audit_pass t a;
    Invariant.deliver a
      ~label:
        (Printf.sprintf "audit of run to t=%.3f (%d servers, seed %d)" time
           (Array.length t.servers) t.config.Config.seed)

let fetch ?on_done t ~client ~node =
  if client < 0 || client >= num_servers t then invalid_arg "Cluster.fetch: bad client";
  if node < 0 || node >= Tree.size t.tree then invalid_arg "Cluster.fetch: bad node";
  let m = met t in
  m.Metrics.data_requests <- m.Metrics.data_requests + 1;
  issue t (next_id t client)
    {
      issuer = client;
      node;
      born = now t;
      attempt = 0;
      kind = Fetch { tried = Hashtbl.create 8; on_done };
    }

let owner_meta_version t node =
  match Server.find_hosted t.servers.(t.owner_of.(node)) node with
  | Some h -> h.Server.h_meta_version
  | None -> 0

let update_meta t node =
  if node < 0 || node >= Tree.size t.tree then invalid_arg "Cluster.update_meta: bad node";
  match Server.find_hosted t.servers.(t.owner_of.(node)) node with
  | Some h ->
    h.Server.h_meta_version <- h.Server.h_meta_version + 1;
    (* mirror of the owner's version, readable from any shard *)
    t.meta_version.(node) <- h.Server.h_meta_version;
    h.Server.h_meta_version
  | None -> 0 (* unreachable: owners host their nodes durably *)

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)
(* ------------------------------------------------------------------ *)

let handoff t ~node ~to_ =
  if node < 0 || node >= Tree.size t.tree then invalid_arg "Cluster.handoff: bad node";
  if to_ < 0 || to_ >= num_servers t then invalid_arg "Cluster.handoff: bad recipient";
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

let kill t sid =
  let s = t.servers.(sid) in
  if s.Server.alive then begin
    s.Server.alive <- false;
    t.epochs.(sid) <- t.epochs.(sid) + 1;
    if Load_meter.is_busy s.Server.load then Load_meter.end_busy s.Server.load (now t);
    s.Server.serving <- false;
    if s.Server.obs_busy then begin
      s.Server.obs_busy <- false;
      (* lint: obs-in-hot-path fail-stop is a cold path; counters level *)
      Obs.record t.obs ~server:sid Event.Server_idle
    end;
    (* Queued work dies with the server; fetches fail over to other
       holders.  Every swept message (and any reply-borne query record —
       the dead server was its issuer, so nothing else will ever touch it)
       is recycled here. *)
    let sweep queue =
      Queue.iter
        (fun msg ->
          (match msg.msg_payload with
          | Query q -> finish_dropped t q Server_dead
          | Query_reply q -> free_query t q
          | Data_request { fetch_id; _ } -> fetch_retry t fetch_id
          | Load_probe _ | Load_reply _ | Replicate _ | Data_reply _ -> ());
          free_msg t msg)
        queue;
      Queue.clear queue
    in
    sweep s.Server.queue;
    sweep s.Server.ctrl_queue;
    (* Fail-stop loses all soft state; ownership is durable. *)
    List.iter (fun node -> Server.evict_replica s node) (Server.replica_nodes s);
    Cache.clear s.Server.cache;
    Server.forget_all_peers s;
    s.Server.session <- None
  end

let revive t sid =
  let s = t.servers.(sid) in
  if not s.Server.alive then begin
    s.Server.alive <- true;
    t.epochs.(sid) <- t.epochs.(sid) + 1;
    (* a crash wiped the soft state; an ownerless server must rejoin with
       its bootstrap contact or it knows nothing *)
    seed_root_hint t.owner_of s
  end

let graceful_leave t sid =
  let s = t.servers.(sid) in
  if s.Server.alive then begin
    let peers =
      Array.to_list t.servers
      |> List.filter (fun p -> p.Server.alive && p.Server.id <> sid)
      |> List.map (fun p -> p.Server.id)
    in
    if peers = [] then invalid_arg "Cluster.graceful_leave: no alive peer to inherit";
    let peers = Array.of_list peers in
    List.iter
      (fun node -> handoff t ~node ~to_:peers.(Splitmix.int t.rng (Array.length peers)))
      (Server.owned_nodes s);
    kill t sid
  end

let alive_servers t =
  Array.fold_left (fun acc s -> if s.Server.alive then acc + 1 else acc) 0 t.servers

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

let total_replicas t =
  Array.fold_left (fun acc s -> acc + s.Server.replica_count) 0 t.servers

let replicas_per_level t which =
  let levels = Tree.level_sizes t.tree in
  let counts = Array.make (Array.length levels) 0 in
  (match which with
  | `Created ->
    Array.iter
      (fun lane -> Array.iteri (fun d c -> counts.(d) <- counts.(d) + c) lane)
      t.replicas_created_per_level
  | `Current ->
    Array.iter
      (fun s ->
        List.iter
          (fun node ->
            let d = Tree.depth t.tree node in
            counts.(d) <- counts.(d) + 1)
          (Server.replica_nodes s))
      t.servers);
  Array.mapi
    (fun d c -> if levels.(d) = 0 then 0.0 else float_of_int c /. float_of_int levels.(d))
    counts

let check_invariants t =
  let a = Invariant.create () in
  audit_pass t a;
  match Invariant.violations a with
  | [] -> ()
  | v :: _ -> failwith ("Cluster: " ^ Invariant.describe v)
