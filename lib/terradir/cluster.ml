open Terradir_util
open Terradir_namespace
open Terradir_sim
open Types
module Obs = Terradir_obs.Obs
module Event = Terradir_obs.Event
module Probes = Terradir_obs.Probes

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

type wire = {
  msg_pool : message Freelist.t array;
  query_pool : query Freelist.t array;
  epochs : int array;  (* bumped on kill/revive; cancels stale events *)
  audit : Invariant.t option;
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
  hop_budget : int;
  data_holders : server_id array array;
  pending : (int, Protocol.request) Hashtbl.t array;
  core : Protocol.t;
  wire : wire;
}

let now t = Engine.now t.engine

let fold_stats arr = Array.fold_left Stats.merge (Stats.create ()) arr

(* ------------------------------------------------------------------ *)
(* Hot-path object pools                                               *)
(* ------------------------------------------------------------------ *)

(* Message and query records are recycled through per-lane free lists, so
   steady-state traffic allocates neither.  Ownership follows the record:
   whichever lane retires one frees it into its OWN lane's pool (records
   migrate between pools as traffic crosses lanes), so pools are
   single-owner within a window exactly like the core's metrics parts and
   need no atomics.  Each record reaches exactly one terminal point —
   enumerated at the [free_msg]/[free_query] call sites — and the scrubs
   below drop every reference (maps, blooms, payloads) so pooled records
   retain nothing across reuse.  Pooling is invisible to the trajectory:
   records are plain containers, and no RNG draw or event order depends on
   them. *)

let lane_pool t pools = pools.(Engine.lane_index t.engine)

let free_msg t m =
  m.msg_to <- -1;
  m.msg_digest <- None;
  m.msg_payload <- null_payload;
  Freelist.put (lane_pool t t.wire.msg_pool) m

let free_query t q =
  path_scrub q;
  q.result_map <- Node_map.empty;
  Freelist.put (lane_pool t t.wire.query_pool) q

let metrics t =
  let c = t.core in
  Metrics.merged
    ~parts:(Array.to_list c.Protocol.lane_metrics)
    ~latency:(fold_stats c.Protocol.lat_stats) ~hops:(fold_stats c.Protocol.hops_stats)
    ~data_latency:(fold_stats c.Protocol.data_lat_stats)
    ~meta_lag:(fold_stats c.Protocol.meta_lag_stats)

(* One full audit pass over engine time, every server, and ownership
   placement — runs between events (engine observer) and at the end of
   every [run_until]. *)
let audit_pass t a =
  Invariant.check_cluster a ~now:(now t) ~next_event:(Engine.next_time t.engine)
    ~servers:t.servers ~owner_of:t.owner_of

let server t sid = t.servers.(sid)

let num_servers t = Array.length t.servers

(* The span skeleton (DESIGN §11): one edge of the lookup a message
   carries, recorded at the spans level.  [delay] is [`Transit]'s wire
   time; the other edges ignore it. *)
let span t ~server ~delay msg edge =
  match msg.msg_payload with
  | (Query q | Query_reply q) when Obs.spans_on t.obs ->
    let qid = q.qid and attempt = q.attempt in
    (* lint: obs-in-hot-path span skeleton, one record per edge; spans level *)
    Obs.record t.obs ~server
      (match edge with
      | `Enter -> Event.Queue_enter { qid; attempt }
      | `Begin -> Event.Service_begin { qid; attempt }
      | `End -> Event.Service_end { qid; attempt }
      | `Transit -> Event.Net_transit { qid; attempt; dst_server = msg.msg_to; delay })
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Messaging                                                           *)
(* ------------------------------------------------------------------ *)

(* A message's two event thunks are built here, once per record, and
   survive every recycling: the steady-state message path schedules them
   instead of allocating a closure per event. *)
let rec alloc_msg t ~from ~to_ ~load ~digest_version ~digest payload =
  let p = lane_pool t t.wire.msg_pool in
  let m =
    if not (Freelist.is_empty p) then Freelist.pop p
    else begin
      let m =
        {
          msg_from = -1;
          msg_to = -1;
          msg_epoch = 0;
          msg_load = Float.Array.make 1 0.0;
          msg_digest_version = 0;
          msg_digest = None;
          msg_payload = null_payload;
          msg_deliver = ignore;
          msg_served = ignore;
        }
      in
      m.msg_deliver <- (fun () -> deliver t m);
      m.msg_served <- (fun () -> served t m);
      m
    end
  in
  m.msg_from <- from;
  m.msg_to <- to_;
  Float.Array.set m.msg_load 0 load;
  m.msg_digest_version <- digest_version;
  m.msg_digest <- digest;
  m.msg_payload <- payload;
  m

and send t ~from ~to_ payload =
  let s = t.servers.(from) in
  let version = Digest_store.local_version s.Server.digests in
  let digest =
    if
      t.config.Config.features.Config.digests
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
    let m = Protocol.met t.core in
    m.Metrics.control_messages <- m.Metrics.control_messages + 1
  | Query _ | Query_reply _ | Data_request _ | Data_reply _ -> ());
  (* The network decides: silent loss and partitions vanish the message —
     the sender learns nothing, so recovery is the issuer's timer's job.
     The message record is only built for deliveries the network makes
     ([Load_meter.load] is an idempotent window roll, so reading it after
     the transmit draw — or not at all on a loss — changes nothing). *)
  match Net.transmit t.net ~src:from ~dst:to_ with
  | Net.Delivered delay ->
    let msg =
      alloc_msg t ~from ~to_
        ~load:(Load_meter.load s.Server.load (now t))
        ~digest_version:version ~digest payload
    in
    span t ~server:from ~delay msg `Transit;
    Engine.schedule ~owner:to_ t.engine ~delay msg.msg_deliver
  | (Net.Lost | Net.Blocked) as verdict -> (
    let m = Protocol.met t.core in
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
    | Some bloom when t.config.Config.features.Config.digests && msg.msg_from <> to_ ->
      Digest_store.record_remote s.Server.digests ~server:msg.msg_from
        ~version:msg.msg_digest_version bloom
    | Some _ | None -> ());
    match msg.msg_payload with
    | (Query _ | Data_request _) as p when Queue.length s.Server.queue >= Server.queue_capacity ->
      Protocol.drop_unserved t.core Queue_full p;
      free_msg t msg
    | Query _ | Data_request _ ->
      span t ~server:to_ ~delay:0.0 msg `Enter;
      Queue.add msg s.Server.queue;
      kick t to_
    | Query_reply _ | Load_probe _ | Load_reply _ | Replicate _ | Data_reply _ ->
      span t ~server:to_ ~delay:0.0 msg `Enter;
      Queue.add msg s.Server.ctrl_queue;
      kick t to_
  end

(* A message reached a dead server.  Queries bounce back to the sender
   (failure detection), which prunes the dead host and retries; a data
   request fails over, control messages are lost (session timeouts recover). *)
and bounce t ~dead msg =
  match msg.msg_payload with
  | Query q ->
    let sender = msg.msg_from in
    Engine.schedule ~owner:sender t.engine ~delay:t.config.Config.network_delay (fun () ->
        let s = t.servers.(sender) in
        if not s.Server.alive then begin
          Protocol.finish_dropped t.core q Server_dead;
          free_msg t msg
        end
        else begin
          Server.forget_server s q.target dead;
          Server.forget_peer s dead;
          Protocol.reseed_delegation t.core s q.target;
          q.hops <- q.hops + 2;
          if q.hops > t.hop_budget then begin
            Protocol.finish_dropped t.core q Hop_budget;
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
    Protocol.finish_dropped t.core q Server_dead;
    free_msg t msg
  | (Data_request _ | Load_probe _ | Load_reply _ | Replicate _ | Data_reply _) as p ->
    Protocol.drop_unserved t.core Server_dead p;
    free_msg t msg

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
      span t ~server:sid ~delay:0.0 msg `Begin;
      Load_meter.begin_busy s.Server.load (now t);
      let duration =
        (match msg.msg_payload with
        | Query _ -> Splitmix.exponential s.Server.rng t.config.Config.service_mean
        | Data_request _ -> Splitmix.exponential s.Server.rng data_service_mean
        | Query_reply _ | Load_probe _ | Load_reply _ | Replicate _ | Data_reply _ ->
          ctrl_service)
        /. s.Server.speed
      in
      msg.msg_epoch <- t.wire.epochs.(sid);
      Engine.schedule ~owner:sid t.engine ~delay:duration msg.msg_served
    end
  end

(* End of service at [msg.msg_to]. *)
and served t msg =
  let sid = msg.msg_to in
  if sid < 0 then invalid_arg "Cluster: service completion of a freed message";
  let s = t.servers.(sid) in
  if t.wire.epochs.(sid) = msg.msg_epoch && s.Server.alive then begin
    Load_meter.end_busy s.Server.load (now t);
    s.Server.serving <- false;
    span t ~server:sid ~delay:0.0 msg `End;
    Protocol.process t.core sid msg;
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
  let hop_budget = (4 * Tree.max_depth tree) + 16 in
  let pending = Array.init k (fun _ -> Hashtbl.create 256) in
  let per_server () = Array.init config.Config.num_servers (fun _ -> Stats.create ()) in
  (* The core's one way onto the wire, built once: no call allocates.  An
     attempt's first hop skips the network (the query originates at its
     issuer) but still queues for service. *)
  let rec t =
    {
      engine;
      config;
      tree;
      servers;
      owner_of;
      rng;
      net;
      obs;
      hop_budget;
      data_holders;
      pending;
      core;
      wire =
        {
          msg_pool = Array.init lanes (fun _ -> Freelist.create ());
          query_pool = Array.init lanes (fun _ -> Freelist.create ());
          epochs = Array.make config.Config.num_servers 0;
          audit = (if Invariant.enabled () then Some (Invariant.create ()) else None);
        };
    }
  and core =
    {
      Protocol.engine;
      config;
      tree;
      servers;
      owner_of;
      obs;
      hop_budget;
      data_holders;
      shard_ix;
      pending;
      lane_metrics = Array.init lanes (fun _ -> Metrics.create ());
      lat_stats = per_server ();
      hops_stats = per_server ();
      data_lat_stats = per_server ();
      meta_lag_stats = per_server ();
      replicas_created_per_level =
        Array.init lanes (fun _ -> Array.make (Tree.max_depth tree + 1) 0);
      id_seq = Array.make config.Config.num_servers 0;
      meta_version = Array.make (Tree.size tree) 0;
      transport;
    }
  and transport =
    {
      Protocol.send = (fun ~from ~to_ payload -> send t ~from ~to_ payload);
      enqueue =
        (fun q ->
          deliver t
            (alloc_msg t ~from:q.src_server ~to_:q.src_server ~load:0.0 ~digest_version:0
               ~digest:None q.as_query));
      alloc_query =
        (fun () ->
          let p = lane_pool t t.wire.query_pool in
          if Freelist.is_empty p then fresh_query () else Freelist.pop p);
      free_query = (fun q -> free_query t q);
    }
  in
  (match t.wire.audit with
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
        let m = Protocol.met t.core in
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
            let m = Protocol.met t.core in
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

let inject ?on_complete t ~src ~dst =
  if src < 0 || src >= num_servers t then invalid_arg "Cluster.inject: bad source server";
  if dst < 0 || dst >= Tree.size t.tree then invalid_arg "Cluster.inject: bad destination node";
  let time = now t in
  let m = Protocol.met t.core in
  m.Metrics.injected <- m.Metrics.injected + 1;
  Timeseries.incr m.Metrics.injected_ts time;
  let qid = Protocol.next_id t.core src in
  if Obs.spans_on t.obs then
    (* lint: obs-in-hot-path span root; spans level *)
    Obs.record t.obs ~server:src (Event.Query_injected { qid; dst });
  Protocol.issue t.core qid
    { Protocol.issuer = src; node = dst; born = time; attempt = 0; kind = Lookup on_complete }

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
  match t.wire.audit with
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
  let m = Protocol.met t.core in
  m.Metrics.data_requests <- m.Metrics.data_requests + 1;
  Protocol.issue t.core (Protocol.next_id t.core client)
    {
      Protocol.issuer = client;
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
    t.core.Protocol.meta_version.(node) <- h.Server.h_meta_version;
    h.Server.h_meta_version
  | None -> 0 (* unreachable: owners host their nodes durably *)

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)
(* ------------------------------------------------------------------ *)

let handoff t = Protocol.handoff t.core

let kill t sid =
  let s = t.servers.(sid) in
  if s.Server.alive then begin
    s.Server.alive <- false;
    t.wire.epochs.(sid) <- t.wire.epochs.(sid) + 1;
    if Load_meter.is_busy s.Server.load then Load_meter.end_busy s.Server.load (now t);
    s.Server.serving <- false;
    if s.Server.obs_busy then begin
      s.Server.obs_busy <- false;
      (* lint: obs-in-hot-path fail-stop is a cold path; counters level *)
      Obs.record t.obs ~server:sid Event.Server_idle
    end;
    (* Queued work dies with the server: every swept message is recycled
       here, after the core retires what it carried. *)
    let sweep queue =
      Queue.iter
        (fun msg ->
          Protocol.drop_unserved t.core Server_dead msg.msg_payload;
          free_msg t msg)
        queue;
      Queue.clear queue
    in
    sweep s.Server.queue;
    sweep s.Server.ctrl_queue;
    Protocol.crash s
  end

let revive t sid =
  let s = t.servers.(sid) in
  if not s.Server.alive then begin
    s.Server.alive <- true;
    t.wire.epochs.(sid) <- t.wire.epochs.(sid) + 1;
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
      t.core.Protocol.replicas_created_per_level
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
