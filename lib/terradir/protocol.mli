(** The protocol core: the decisions a server makes over its own soft
    state — query processing (§2.2's minimizing route, §2.4's path
    propagation), the request lifecycle, and §3.3's replication sessions.
    Time and timers are direct calls on a real {!Terradir_sim.Engine.t};
    messages leave only through {!transport}, which {!Cluster} implements
    and a test may replace with a recording fake.

    - staleness decay: three durable-knowledge fallbacks keep routing live
      under churn.  A stale forward (the receiver no longer hosts the
      target) corrects the sender's map after one network delay, the dual
      of the bounce for {e alive} hosts; a context map that bounce-pruning
      would leave empty is re-seeded with the node's current owner (the
      delegation is configuration, like a DNS NS record, never truly
      forgotten); and a server left with no usable candidate — or only
      sideways ones on a stale forward — falls back on the well-known root
      contact and lets the query descend the owner chain;
    - requests and timeouts: a lookup and a data fetch are both a
      {!request} with one lifecycle.  {!issue} registers it in its
      issuer's shard of [pending] and starts attempt 0.  When
      [rpc_timeout] is positive, a per-request timer at the issuer
      retransmits an attempt that produced no outcome in time (some
      message of it was silently lost), with exponentially backed-off
      timeouts, up to [max_retries] times; a fetch asks a holder it has
      not tried yet, and starts over across all of them once every one
      was tried.  The first outcome of any attempt finalizes the request,
      exactly once; duplicate results are discarded (counted as
      [late_replies]).  A request that cannot complete — a lookup's
      terminal drop, a fetch with no holder left, the last timer expiry —
      gives up through one path: a lookup counts a drop and reports
      [Dropped], a fetch counts [data_dropped] and reports
      [Fetch_failed]. *)

open Types

(** What a request is for, with its kind-specific state. *)
type request_kind =
  | Lookup of (outcome -> unit) option  (** the [on_complete] callback *)
  | Fetch of {
      tried : (server_id, unit) Hashtbl.t;
          (** holders already asked this failover round (constant-time
              membership; cleared when every holder has been tried) *)
      on_done : (fetch_outcome -> unit) option;
    }

(** Issuer state for an in-flight lookup or fetch: survives across
    retransmitted attempts; removed exactly once, on finalization. *)
type request = {
  issuer : server_id;  (** the lookup's source, the fetch's client *)
  node : node_id;  (** the lookup's destination, the fetched node *)
  born : float;  (** issue time; latencies are measured from it *)
  mutable attempt : int;
      (** newest attempt number (0 = original), advanced only by the
          request's timer; drops reported by older lookup attempts are
          discarded, while a result from any attempt finalizes *)
  kind : request_kind;
}

(** The core's only way to other servers, built once per deployment. *)
type transport = {
  send : from:server_id -> to_:server_id -> payload -> unit;
      (** onto the wire, subject to loss and partitions *)
  enqueue : query -> unit;  (** an attempt's first hop: its issuer's own queue *)
  alloc_query : unit -> query;  (** a record to initialize; any field may be stale *)
  free_query : query -> unit;  (** retire a record at its terminal point *)
}

(** The core's state.  The first eight fields are the deployment's, as in
    {!Cluster.t}; per-lane arrays have [Engine.lane_count] entries and
    [pending] one table per shard. *)
type t = {
  engine : Terradir_sim.Engine.t;
  config : Config.t;
  tree : Terradir_namespace.Tree.t;
  servers : Server.t array;
  owner_of : server_id array;
  obs : Terradir_obs.Obs.t;
  hop_budget : int;
  data_holders : server_id array array;
  shard_ix : int array;  (** server → engine shard lane (all 0 when K = 1) *)
  pending : (int, request) Hashtbl.t array;
  lane_metrics : Metrics.t array;
      (** one metrics part per engine lane; every counter bump lands in
          the executing lane's part ({!met}) *)
  lat_stats : Terradir_util.Stats.t array;
      (** per-issuer resolution-latency accumulators, folded in server-id
          order so the merged moments are independent of the shard layout *)
  hops_stats : Terradir_util.Stats.t array;
  data_lat_stats : Terradir_util.Stats.t array;
  meta_lag_stats : Terradir_util.Stats.t array;
  replicas_created_per_level : int array array;  (** per lane, per level *)
  id_seq : int array;
      (** per-server counter behind request and replication-session ids;
          ids are [(issuer + 1) lsl 32 lor seq], so issuer and shard are
          recoverable from any context *)
  meta_version : int array;
      (** per-node authoritative meta-data version — the owner's truth,
          mirrored here so resolution-time staleness measurement reads no
          other shard's server records *)
  transport : transport;
}

val met : t -> Metrics.t
(** The executing lane's metrics part. *)

val next_id : t -> server_id -> int
(** A fresh request or session id issued by a server. *)

val process : t -> server_id -> message -> unit
(** Serve one message at a server, then check whether to open a
    replication session (§3.3 step 1). *)

val finish_dropped : t -> query -> drop_reason -> unit
(** A query attempt met a terminal drop: finalize its request at the
    issuer unless a newer attempt supersedes it, and retire the record. *)

val reseed_delegation : t -> Server.t -> node_id -> unit
(** Re-seed a context map that bounce-pruning emptied with the owner. *)

val issue : t -> int -> request -> unit
(** Register a request, start its first attempt and arm its timer. *)

val drop_unserved : t -> drop_reason -> payload -> unit
(** Retire what a message that will never be served carried: a query is
    dropped for [reason], a reply recycled (only a crash at its issuer
    strands one), a fetch fails over. *)

val crash : Server.t -> unit
(** Fail-stop loses all soft state; ownership is durable. *)

val handoff : t -> node:node_id -> to_:server_id -> unit
(** {!Cluster.handoff}. *)
