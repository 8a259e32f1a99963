(** Shared protocol types: identifiers, queries, and messages.

    Plain data shuttled between the routing, replication and cluster
    layers; the interface restates the implementation so every module in
    the library carries one (warning 70 is enforced per directory). *)

type server_id = int

type node_id = int

(** Outcome of a data fetch (step two of lookup-then-retrieve). *)
type fetch_outcome = Fetched of { latency : float } | Fetch_failed

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
          parallel to [path_nodes], capped at 32 in flight. *)
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

val path_store : int
(** Ring capacity, 33: the in-flight path bound of 32 plus one, because
    resolution appends the destination's entry without truncating, exactly
    as the historical list did. *)

val path_reset : query -> unit
(** Empty the path (head and length only; slots keep stale references
    until overwritten or {!path_scrub}bed). *)

val path_append : query -> node_id -> Node_map.t -> unit
(** Push a newest entry, overwriting the oldest once the ring is full. *)

val path_truncate : query -> unit
(** Drop oldest entries beyond the in-flight piggyback bound of 32. *)

val path_scrub : query -> unit
(** {!path_reset} plus clearing every map slot to [Node_map.empty], so a
    pooled record retains no maps across reuse. *)

val fresh_query : unit -> query
(** A blank record with its path ring and its two payload blocks
    ([as_query], [as_reply]) allocated — the pool's constructor; every
    mutable field is overwritten by the cluster's recycler. *)

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

val null_payload : payload
(** Scrub value for pooled messages — its fetch id (-1) names no issuer. *)
