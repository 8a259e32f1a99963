(** Per-server (peer) state and its invariant-preserving mutators.

    A server aggregates all four kinds of node state from Table 1:

    {v
    Node state    Name  Map  Data  Meta  Context
    Owned          x     x    x     x      x
    Replicated     x     x          x      x
    Neighboring    x     x
    Cached         x     x
    v}

    plus the machinery of the protocol: load meter, demand ranking, node
    cache, digest store, peer-load table, message queues and the replication
    session.  Mutators keep the cross-structure invariants (neighbor-map
    refcounts, replica budget, digest freshness) — {!Invariant} audits them
    at runtime and in tests.

    All event-driven behavior lives in {!Cluster}; this module never sends
    messages or schedules events. *)

open Types

val queue_capacity : int
(** Per-server request queue bound (§4.1's 12): a lookup or fetch arriving
    at a full query queue is dropped. *)

val max_digests_consulted : int
(** Remote digests consulted per routing step (Bloom false positives
    compound across ancestors × digests, so only the most recently
    refreshed few are tested). *)

type host_kind = Owned | Replicated

(** A read-only snapshot of one hosted entry, built by {!find_hosted}.
    The entry itself is a slot of [hosted]: its map is the value, and the
    rest sits in the table's columns, read through the slot accessors. *)
type hosted = {
  h_kind : host_kind;
  h_map : Node_map.t;  (** hosts of this node, self included *)
  h_meta_version : int;
  h_last_used : float;  (** time of the last processed query for it *)
}

(** An in-progress replication session (§3.3). *)
type session = { session_id : int; mutable tried : server_id list; mutable attempts : int }

type t = {
  id : server_id;
  config : Config.t;
  tree : Terradir_namespace.Tree.t;
  rng : Terradir_util.Splitmix.t;
  obs : Terradir_obs.Obs.t;
      (** observability sink (shared cluster-wide); read by {!Routing} and
          {!Replication} so their signatures stay hook-free *)
  speed : float;  (** relative capacity: service times divide by this *)
  hosted : Node_map.t Terradir_util.Intmap.t;
      (** hosted node → its map, no record per entry.  Its dense keys
          ([Intmap.key_at] over [0 .. length - 1]) list each hosted node
          once, in no particular order — read by {!Routing} as a
          sequential sweep.  The int column holds [meta_version lsl 1]
          with the kind in the low bit (1 for a replica), the float column
          the time of the last processed query for the node: read the
          int cell through {!hosted_kind_at} and {!meta_version_at}. *)
  neighbor_maps : Node_map.t Terradir_util.Intmap.t;
      (** routing context for each tree-neighbor of a hosted node; the int
          column counts the hosted nodes whose context it belongs to *)
  mutable owned_count : int;
  mutable replica_count : int;
  cache : Cache.t;
  digests : Digest_store.t;
  load : Load_meter.t;
  ranking : Ranking.t;
  known_loads : Terradir_util.Packed_table.t;
      (** believed load per peer, in the slot's float, updated in place;
          the payload is the peer's insertion sequence *)
  mutable peer_seq : int;  (** insertion sequence of the next new peer *)
  mutable peer_buckets : int;
      (** bucket count of the Stdlib [Hashtbl] that [known_loads] once was,
          replayed for {!min_load_peer}'s order *)
  queue : message Queue.t;  (** bounded query-class FIFO *)
  ctrl_queue : message Queue.t;  (** unbounded, served with priority *)
  mutable serving : bool;
  mutable obs_busy : bool;
      (** observability-only: true between the recorded busy/idle edge
          events; written only while the sink's counters level is on *)
  mutable session : session option;
  floats : floatarray;
      (** unboxed per-event float state: read it through {!peer_load_sum}
          and {!session_backoff_until} *)
  mutable alive : bool;
  (* counters *)
  mutable replicas_evicted : int;
}

val create :
  id:server_id ->
  config:Config.t ->
  tree:Terradir_namespace.Tree.t ->
  ?speed:float ->
  ?obs:Terradir_obs.Obs.t ->
  rng:Terradir_util.Splitmix.t ->
  unit ->
  t
(** [speed] defaults to 1.0; must be positive.  [obs] defaults to the
    disabled sink; the server emits replica-churn and digest events
    through it and hands it to its cache. *)

val peer_load_sum : t -> float
(** Running Σ of the [known_loads] values, maintained by {!note_peer_load}
    and {!forget_peer}, so the replication trigger's believed-mean-load
    check is O(1) per message instead of an O(peers) fold (the fold
    dominated large deployments). *)

val session_backoff_until : t -> float
(** No replication session starts before this time. *)

val set_session_backoff_until : t -> float -> unit

val add_owned : t -> node_id -> owner_map:(node_id -> Node_map.t) -> unit
(** Install an owned node at bootstrap.  [owner_map v] is [v]'s bootstrap
    map, naming its ground-truth owner (local information each owner has
    by construction of the namespace): the node's own map is
    [owner_map node], and each tree-neighbor's context starts as
    [owner_map nb].  Maps are immutable, so {!Cluster} passes one shared
    map per node to every server.  Rebuilds the digest.
    @raise Invalid_argument if the node is hosted already, or if
    [owner_map node] does not name this server as owner. *)

val find_hosted : t -> node_id -> hosted option
(** A snapshot of the node's hosted entry, built on demand: for tests and
    probes, never the hot path, which reads slots. *)

(** {2 Hosted slots}

    The int column of [hosted] read by slot ([Intmap.slot]); a slot is
    good until the next hosting or eviction. *)

val hosted_kind_at : t -> int -> host_kind

val meta_version_at : t -> int -> int

val set_meta_version_at : t -> int -> int -> unit

val hosts : t -> node_id -> bool

val hosted_nodes : t -> node_id list

val owned_nodes : t -> node_id list

val replica_nodes : t -> node_id list

val neighbor_map : t -> node_id -> Node_map.t
(** Routing context: map for a tree-neighbor of some hosted node, empty
    when the server has none (an absent and an empty context route
    alike). *)

val known_map : t -> node_id -> Node_map.t option
(** Best map this server has for a node: hosted > neighbor > cached.
    Does not touch the cache's LRU state. *)

val merge_into_known_map : t -> node_id -> Node_map.t -> now:float -> unit
(** Fold an incoming map (from a query path or back-propagation) into
    whatever representation the server has for the node — hosted map,
    neighbor context, or cache (only if caching is enabled). *)

val touch_node : t -> node_id -> now:float -> unit
(** Demand accounting: bump ranking weight and recency, with periodic decay
    every load window. *)

val note_peer_load : t -> server_id -> float -> unit

val min_load_peer : t -> exclude:server_id list -> (server_id * float) option
(** Least-loaded peer by believed load (the basis of §3.3 step 2); among
    equal loads, the first a [Hashtbl.fold] over a [Hashtbl.create 32]
    with the same insertion and removal history would visit. *)

val replica_budget : t -> int
(** floor(r_fact × owned) − replicas currently hosted (may be negative). *)

val install_replica : t -> replica_payload -> now:float -> [ `Installed | `Merged | `Rejected ]
(** Install a replica (§3.3 step 3 receiver side): makes room per r_fact by
    evicting lowest-ranked replicas, but only ones strictly colder than the
    incoming node's weight hint (displacing equally-hot replicas would
    thrash under flat demand); merges if already hosted; rejects when no
    room can be made. *)

val evict_replica : t -> node_id -> unit
(** @raise Invalid_argument if the node is not hosted as a replica. *)

val remove_owned : t -> node_id -> unit
(** Drop an owned node (ownership handoff, donor side).  Replicas that no
    longer fit the shrunken r_fact budget are evicted lowest-rank-first.
    @raise Invalid_argument if the node is not hosted as owned. *)

val install_owned : t -> replica_payload -> now:float -> unit
(** Ownership handoff, recipient side: install the node as {e owned} from a
    transfer payload (an existing replica of it is upgraded in place).
    The self entry is entered into the node's map as the new owner. *)

val idle_scan : t -> now:float -> node_id list
(** Evict replicas unused for [replica_idle_timeout]; returns them. *)

val queue_length : t -> int
(** Query-class queue occupancy. *)

val prune_map_with_digests : t -> node_id -> Node_map.t -> Node_map.t
(** §3.6.2: drop map entries whose server's stored digest denies hosting the
    node.  Conservative: entries without a digest, and owner entries, are
    kept.  No-op when the digest feature is off. *)

val make_replica_payload : t -> node_id -> replica_payload option
(** Sender side: package a hosted node's replica state (map with self and
    the receiver-relevant stamp refresh, full neighbor context, weight
    hint).  [None] if the node is not hosted. *)

val forget_server : t -> node_id -> server_id -> unit
(** Remove a server from whatever map this server holds for [node] — used
    when a forwarding attempt finds the server dead.  Owner entries are
    removed too (unlike digest pruning, direct failure evidence is
    authoritative). *)

val forget_peer : t -> server_id -> unit
(** Drop a peer from the believed-load table. *)

val forget_all_peers : t -> unit
(** Empty the believed-load table (a crash loses it). *)

val record_new_replica : t -> node_id -> server_id -> now:float -> unit
(** Sender-side bookkeeping after shipping a replica: enter the new host
    into the node's map with a fresh stamp so it is advertised (§3.7). *)

val state_kinds : t -> (node_id * string) list
(** Every node this server has state for, labeled Owned / Replicated /
    Neighboring / Cached (Table 1 introspection). *)
