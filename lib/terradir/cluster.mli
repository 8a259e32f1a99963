(** The simulated TerraDir deployment: servers, network, and protocol
    drivers on top of the discrete-event engine.

    Simulation model (§4.1 of the paper):
    - each server is a single exponential-service-time processor with a
      bounded FIFO request queue; query arrivals beyond the bound are
      dropped;
    - control traffic (replies, load probes/replies, replicate transfers) is
      small and rare: it shares the server's busy time (fixed
      2 ms cost) through a separate unbounded priority queue;
    - every message traverses the {!Terradir_sim.Net} model: latency is
      sampled per message (constant by default, uniform jitter via
      [net_jitter]), messages are lost iid with probability [net_loss],
      and partitions installed on [net] silently swallow traffic across
      the cut until healed.  With the default config the model degenerates
      to the paper's constant-delay lossless network;
    - every message piggybacks sender load and (when stale at the receiver)
      the sender's inverse-mapping digest;
    - failures: {!kill} makes a server lose its soft state (replicas, cache,
      digests, peer loads) and drop traffic; in-flight messages to a dead
      server bounce back after one network delay, letting the sender prune
      the dead host from its maps and retry — queries thus survive host
      failures when an alternative replica is known;
    - the protocol itself — routing and its staleness fallbacks, the
      request lifecycle, replication sessions — is {!Protocol}'s; this
      module is its transport (pools, network, service queues). *)

open Types

type wire
(** The transport's own state: per-lane message and query pools, server
    epochs (bumped on kill/revive, they cancel stale service events), and
    the runtime invariant auditor when enabled ({!Invariant.enabled} at
    construction: checks every 10 000 engine events and at the end of
    every {!run_until}, which also delivers the collected report). *)

type t = {
  engine : Terradir_sim.Engine.t;
  config : Config.t;
  tree : Terradir_namespace.Tree.t;
  servers : Server.t array;
  owner_of : server_id array;  (** ground-truth owner per node (bootstrap) *)
  rng : Terradir_util.Splitmix.t;
  net : Terradir_sim.Net.t;
      (** the fault-injectable transport; install partitions / change loss
          on it directly ({!Terradir_sim.Net.partition}, [set_loss]) *)
  obs : Terradir_obs.Obs.t;
      (** the observability sink every layer records into; the null sink
          (the default) makes every hook a single dead branch *)
  hop_budget : int;
      (** a query is dropped once its hop count exceeds [4 × max tree depth
          + 16]; {!Trace.route} stops at the same budget *)
  data_holders : server_id array array;
      (** node → servers durably holding its data (owner + static copies) *)
  pending : (int, Protocol.request) Hashtbl.t array;
      (** per shard: every unfinalized lookup and fetch, by request id *)
  core : Protocol.t;  (** the protocol core, over the same servers *)
  wire : wire;
}

val metrics : t -> Metrics.t
(** The cluster's measurements: per-lane counter parts summed, per-server
    distribution accumulators folded in id order.  The result is
    byte-identical for every [engine_domains] value (the parallel
    engine's determinism contract).  Builds a fresh struct per call —
    read it once per reporting step, not per sample. *)

val create :
  ?monitor:bool ->
  ?obs:Terradir_obs.Obs.t ->
  ?shard_of:(int -> int) ->
  config:Config.t ->
  tree:Terradir_namespace.Tree.t ->
  unit ->
  t
(** Build the deployment: validate config, place node ownership (uniform or
    round-robin per config), bootstrap each server's owned nodes and
    neighbor contexts, let each server draw [min 8 (S − 1)] random known
    peers (draws of itself are skipped and repeats collapse, so a server
    may start with fewer), and (when [monitor], default true) schedule the
    per-second load sampler and the periodic replica idle scans.

    When [config.engine_domains >= 2] (and the run admits a safe lookahead:
    no [oracle_maps], positive latency floor) the engine is switched to the
    sharded conservative parallel mode, servers assigned to shards by
    [shard_of] (default [fun sid -> sid mod k]; the option is a test hook
    for adversarial layouts — results must not depend on it).

    [obs] (default {!Terradir_obs.Obs.null}) is the flight-recorder sink:
    the cluster points its clock at the engine, threads it into every
    server, the cache layer, and the network, and — when the sink level
    enables counters — registers an engine observer that samples per-server
    probes (load, queue depth, replicas, cache hit rate) every
    [Obs.probe_every] events.  Recording is passive: it never draws
    randomness and never schedules events, so enabling it cannot change a
    run's trajectory. *)

val now : t -> float

val server : t -> server_id -> Server.t

val num_servers : t -> int

val inject : ?on_complete:(outcome -> unit) -> t -> src:server_id -> dst:node_id -> unit
(** Hand a fresh lookup to [src]'s request queue (no network delay — the
    query originates there).  Subject to the queue bound.  [on_complete]
    fires exactly once, with the result map and meta-data on resolution or
    the drop reason otherwise — the hook client layers (retrieval,
    search) build on. *)

val fetch : ?on_done:(fetch_outcome -> unit) -> t -> client:server_id -> node:node_id -> unit
(** Step two of §2.1's two-step access: request [node]'s data from one of
    its data holders (retried across holders on failure).  Data requests
    share the servers' bounded queues and busy time — data load is real
    load, merely {e orthogonal} to the routing load this paper balances. *)

val update_meta : t -> node_id -> int
(** Owner-side meta-data update (§2.3: only the owner may modify
    meta-data); bumps and returns the authoritative version.  Replicas
    learn newer versions lazily, via replica payloads and merges. *)

val owner_meta_version : t -> node_id -> int

val inject_uniform_src : ?on_complete:(outcome -> unit) -> t -> dst:node_id -> server_id
(** [inject] from a uniformly random alive server; returns that server
    (clients layering retrieval on a stream fetch from the same peer the
    lookup ran at). *)

val run_until : t -> float -> unit
(** Advance the simulation clock.  With auditing enabled, ends with a full
    invariant pass and delivers collected violations —
    @raise Invariant.Audit_failure in [`Raise] mode (the default). *)

val handoff : t -> node:node_id -> to_:server_id -> unit
(** Ownership transfer (membership-change extension; the paper assumes a
    static owner per node).  The donor drops the node (shedding replicas
    that no longer fit its budget), the recipient installs it as owned
    with data, meta-data and routing context; ground-truth ownership and
    data placement move with it.  Maps elsewhere keep stale owner entries
    — routing self-corrects through the usual soft-state machinery (stale
    forwards re-route; the donor keeps a cache pointer to the new owner).
    @raise Invalid_argument if [to_] already hosts the node as owned, is
    dead, or ids are out of range. *)

val graceful_leave : t -> server_id -> unit
(** Planned departure: hand every owned node to random alive peers, then
    fail-stop.  Unlike {!kill} alone, no namespace region becomes
    unreachable.  @raise Invalid_argument when no alive peer remains. *)

val kill : t -> server_id -> unit
(** Fail-stop: drops queued work, loses soft state, keeps owned nodes.
    Idempotent. *)

val revive : t -> server_id -> unit

val alive_servers : t -> int

val total_replicas : t -> int
(** Replicas currently hosted across the cluster. *)

val replicas_per_level : t -> [ `Current | `Created ] -> float array
(** Average replicas per node at each namespace level (Fig. 7):
    [`Current] counts replicas held now, [`Created] cumulative installs. *)

val check_invariants : t -> unit
(** One immediate {!Invariant.check_cluster} pass (independent of whether
    auditing is enabled).  @raise Failure describing the first violation. *)

val alloc_msg :
  t ->
  from:server_id ->
  to_:server_id ->
  load:float ->
  digest_version:int ->
  digest:Terradir_bloom.Bloom.t option ->
  payload ->
  message
(** Take a message record from the calling lane's pool, or build one with
    its two event thunks when the pool is empty.  The transport calls it
    for every delivery; exported for the pooling tests. *)

val free_msg : t -> message -> unit
(** Scrub a message (recipient -1, no digest, no payload) and return it to
    the calling lane's pool; its thunks stay built.  Exported for the
    pooling tests. *)
