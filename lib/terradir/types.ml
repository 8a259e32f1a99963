(** Shared protocol types: identifiers, queries, and messages.

    Plain data shuttled between the routing, replication and cluster
    layers; see the interface for the full documentation. *)

type server_id = int

type node_id = int

(** Terminal outcome of a lookup, delivered to the issuer's callback. *)
type outcome =
  | Resolved of {
      latency : float;
      hops : int;
      map : Node_map.t;  (** the destination's map — the lookup result *)
      meta_version : int;  (** meta-data version at the resolving host *)
    }
  | Dropped of drop_reason

and drop_reason =
  | Queue_full  (** §4.1: arrivals beyond the request queue bound *)
  | Hop_budget  (** routing failed to converge (staleness/loops) *)
  | Dead_end  (** no forwarding candidate (e.g. all known hosts dead) *)
  | Server_dead  (** delivered to a failed server with no retry possible *)
  | Timed_out
      (** the per-request timer expired with no retransmissions left —
          some message of every attempt was silently lost in the network *)

(** In-flight lookup query state.  [target] is the node on whose behalf the
    query was last forwarded — the receiving server is expected (but, with
    soft state, not guaranteed) to host it.

    Every field is mutable because the record is {e pooled}: the cluster
    recycles retired records through per-lane free lists, so steady-state
    traffic allocates no query records.  The path rides in a fixed ring
    ([path_nodes]/[path_maps], newest at [path_head]) instead of a list —
    appending overwrites the oldest slot, reproducing the historical
    newest-first truncation without consing. *)
and query = {
  mutable qid : int;
  mutable src_server : server_id;
  mutable dst : node_id;
  mutable attempt : int;
      (** which transmission of the request this is (0 = original); the
          issuer discards outcomes of superseded attempts *)
  born : floatarray;
      (** one cell: injection time of the {e original} attempt, unboxed
          because it is written per attempt *)
  mutable hops : int;  (** network hops taken so far *)
  mutable target : node_id;
  path_nodes : int array;  (** ring of path node ids; length [path_store] *)
  path_maps : Node_map.t array;
      (** Path propagation (§2.4): the route so far as (node, map) slots
          parallel to [path_nodes], capped at [path_cap] in flight. *)
  mutable path_head : int;  (** ring index of the newest path entry *)
  mutable path_len : int;  (** live entries, newest-first from [path_head] *)
  mutable best_dist : int;
      (** closest namespace distance to [dst] this query has ever reached;
          digest shortcuts must beat it, which makes shortcut chains
          strictly decreasing and immune to false-positive loops *)
  mutable result_map : Node_map.t;  (** destination map captured at resolution *)
  mutable result_meta : int;
  as_query : payload;  (** [Query] of this record, built once with it *)
  as_reply : payload;  (** [Query_reply] of this record, built once with it *)
}
(** The issuer's callback lives with the cluster's per-request state (keyed
    by [qid]), not on the in-flight record: attempts are retransmitted and
    raced, but the request completes exactly once. *)

(** State shipped when a node is replicated: exactly the "Replicated" row of
    Table 1 — name (id), meta-data (version), map, and routing context. *)
and replica_payload = {
  rp_node : node_id;
  rp_meta_version : int;
  rp_map : Node_map.t;  (** map for the node itself, sender's view *)
  rp_context : (node_id * Node_map.t) list;  (** maps for each tree neighbor *)
  rp_weight_hint : float;  (** sender's demand weight, seeds receiver ranking *)
}

and payload =
  | Query of query
  | Query_reply of query  (** resolution notice, sent straight back to src *)
  | Load_probe of { session : int }
  | Load_reply of { session : int; load : float }
  | Replicate of { session : int; replicas : replica_payload list }
  | Data_request of { fetch_id : int; node : node_id; client : server_id }
      (** step two of the lookup-then-retrieve protocol (§2.1): fetch the
          node's data from one of its data holders *)
  | Data_reply of { fetch_id : int; node : node_id }

(* Bound on propagated path length; real deployments cap piggyback size. *)
let path_cap = 32

let path_store = path_cap + 1
(* One extra slot: resolution appends the destination's own entry without
   truncating (the historical list did the same), so the endpoint absorb
   can see path_cap + 1 entries. *)

let path_reset q =
  q.path_head <- 0;
  q.path_len <- 0

let path_append q node map =
  let h = q.path_head + 1 in
  let h = if h = path_store then 0 else h in
  q.path_head <- h;
  q.path_nodes.(h) <- node;
  q.path_maps.(h) <- map;
  if q.path_len < path_store then q.path_len <- q.path_len + 1

let path_truncate q = if q.path_len > path_cap then q.path_len <- path_cap

let path_scrub q =
  Array.fill q.path_maps 0 path_store Node_map.empty;
  path_reset q

(* The two payload blocks point back at the record, so a hop hands its
   query to [send] without allocating a wrapper that the pooled message
   would then keep alive past a minor collection. *)
let fresh_query () =
  let rec q =
    {
      qid = 0;
      src_server = 0;
      dst = 0;
      attempt = 0;
      born = Float.Array.make 1 0.0;
      hops = 0;
      target = 0;
      path_nodes = Array.make path_store 0;
      path_maps = Array.make path_store Node_map.empty;
      path_head = 0;
      path_len = 0;
      best_dist = max_int;
      result_map = Node_map.empty;
      result_meta = 0;
      as_query = Query q;
      as_reply = Query_reply q;
    }
  in
  q

(** Every message piggybacks the sender's load and digest version; the full
    digest rides along when the sender believes the receiver's copy is
    stale (§6: in-band dissemination only).  Mutable for the same reason as
    [query]: messages are pooled, built only for deliveries the network
    actually makes.

    The record also carries the two engine events of its life, as thunks
    the cluster builds once per record: [msg_deliver] (arrival at
    [msg_to]) and [msg_served] (end of service there, void unless the
    server's epoch still equals [msg_epoch]).  Scheduling them allocates
    no closure per event.  A freed record has [msg_to = -1], and either
    thunk fired on it raises [Invalid_argument]. *)
type message = {
  mutable msg_from : server_id;
  mutable msg_to : server_id;  (** recipient; -1 while pooled *)
  mutable msg_epoch : int;  (** recipient's epoch when service began *)
  msg_load : floatarray;  (** one cell: the sender's load, unboxed *)
  mutable msg_digest_version : int;
  mutable msg_digest : Terradir_bloom.Bloom.t option;
  mutable msg_payload : payload;
  mutable msg_deliver : unit -> unit;
  mutable msg_served : unit -> unit;
}

let null_payload = Data_reply { fetch_id = -1; node = -1 }
(* Scrub value for pooled messages: fetch id -1 names no issuer, so a bug
   that processed a scrubbed record would fail on the pending-table
   lookup. *)
