(** Shared protocol types: identifiers, queries, and messages.

    Plain data shuttled between the routing, replication and cluster
    layers; see the interface for the full documentation. *)

type server_id = int

type node_id = int

type fetch_outcome = Fetched of { latency : float } | Fetch_failed

type outcome =
  | Resolved of {
      latency : float;
      hops : int;
      map : Node_map.t;
      meta_version : int;
    }
  | Dropped of drop_reason

and drop_reason =
  | Queue_full
  | Hop_budget
  | Dead_end
  | Server_dead
  | Timed_out

and query = {
  mutable qid : int;
  mutable src_server : server_id;
  mutable dst : node_id;
  mutable attempt : int;
  born : floatarray;
  mutable hops : int;
  mutable target : node_id;
  path_nodes : int array;
  path_maps : Node_map.t array;
      (** Path propagation (§2.4): the route so far as (node, map) slots
          parallel to [path_nodes], capped at [path_cap] in flight. *)
  mutable path_head : int;
  mutable path_len : int;
  mutable best_dist : int;
  mutable result_map : Node_map.t;
  mutable result_meta : int;
  as_query : payload;
  as_reply : payload;
}

and replica_payload = {
  rp_node : node_id;
  rp_meta_version : int;
  rp_map : Node_map.t;
  rp_context : (node_id * Node_map.t) list;
  rp_weight_hint : float;
}

and payload =
  | Query of query
  | Query_reply of query
  | Load_probe of { session : int }
  | Load_reply of { session : int; load : float }
  | Replicate of { session : int; replicas : replica_payload list }
  | Data_request of { fetch_id : int; node : node_id; client : server_id }
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

type message = {
  mutable msg_from : server_id;
  mutable msg_to : server_id;
  mutable msg_epoch : int;
  msg_load : floatarray;
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
