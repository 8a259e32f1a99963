(** Protocol and simulation parameters.

    One record holds every tunable of the system: the methodology constants
    of §4.1 (service time, network delay, queue bound), the replication
    protocol knobs of §3 (high-water threshold, minimum shed delta,
    replication factor, map size), and the feature switches that realize the
    paper's Fig. 5 ablations (B / BC / BCR). *)

type features = {
  caching : bool;  (** path-propagation LRU caches (§2.4) *)
  replication : bool;  (** adaptive replication protocol (§3) *)
  digests : bool;  (** inverse-mapping digests (§3.6) *)
}

type placement =
  | Uniform  (** each node's owner drawn uniformly at random (§4.1) *)
  | Round_robin  (** shuffled round-robin: exact nodes-per-server (Fig. 9) *)

type cache_policy =
  | Path_propagation
      (** §2.4: the path-so-far is cached at every step, and the whole path
          at the source on completion (the paper's design) *)
  | Endpoints_only
      (** the strawman the paper compares against: only the source caches,
          and only the destination's map *)

type t = {
  num_servers : int;
  placement : placement;
  speed_spread : float;
      (** server heterogeneity: per-server speed factors drawn log-uniform
          in [1/spread, spread] and normalized to mean 1, so the aggregate
          capacity is spread-invariant.  1.0 (default) = homogeneous.  The
          load metric needs no change — busy fraction is §3.1's normalized,
          locally-defined measure, which is how the protocol "exploits
          system heterogeneity" (§5) *)
  service_mean : float;  (** mean exponential query service time, seconds *)
  ctrl_service : float;  (** fixed service time of a control message *)
  network_delay : float;  (** mean application-layer network time *)
  net_jitter : float;
      (** half-width of the uniform per-message latency jitter around
          [network_delay] (0 = the paper's constant-delay network); must
          not exceed [network_delay].  Richer latency models (lognormal)
          are available on {!Terradir_sim.Net} directly *)
  net_loss : float;
      (** iid probability that any message is silently lost in the network
          (0 = the paper's lossless network).  Lost queries and fetches
          hang unless [rpc_timeout] arms the retransmission machinery *)
  rpc_timeout : float;
      (** per-request timer at the issuer for lookups and data fetches: an
          attempt that produces no outcome within the timeout is
          retransmitted (up to [max_retries] times, timeouts growing by
          [retry_backoff]); 0 (the default) disables timers entirely —
          exactly the seed semantics, where only explicit bounce-backs
          from dead hosts trigger retry *)
  max_retries : int;  (** retransmissions per request after the original *)
  retry_backoff : float;
      (** timeout multiplier per retransmission (>= 1); attempt [k] waits
          [rpc_timeout * retry_backoff^k] *)
  queue_capacity : int;  (** per-server request queue bound; excess dropped *)
  load_window : float;  (** busy-fraction measurement window W *)
  high_water : float;  (** T_high floor: load that triggers replication sessions *)
  high_water_factor : float;
      (** §3.1: the threshold "can automatically be set in proportion to
          the overall system utilization".  The effective threshold is
          [max high_water (min 0.95 (factor × believed mean load))], the
          mean taken over the in-band peer-load table.  Without this, any
          server whose sustained load sits above the constant floor sheds
          forever and the system never stabilizes (cf. Fig. 8).  0 disables
          the adaptation (constant threshold). *)
  min_delta : float;  (** minimum load gap required to shed onto a peer *)
  r_fact : float;  (** replicas hosted <= r_fact * nodes owned *)
  r_map : int;  (** maximum entries in any node map *)
  cache_slots : int;  (** LRU cache capacity, entries *)
  cache_policy : cache_policy;
  max_attempts : int;  (** destination-server attempts per session *)
  retry_delay : float;  (** pause after an aborted replication session *)
  success_cooldown : float;
      (** pause after a {e successful} shed before opening another session —
          gives the shed time to divert traffic (with only the one-window
          hysteresis adjustment, a persistently hot server would otherwise
          open a session per load window and thrash) *)
  replica_idle_timeout : float;  (** soft-state: evict replicas unused this long *)
  eviction_scan_period : float;  (** period of the idle-replica scan *)
  hop_budget_slack : int;  (** queries dropped after 4*max_depth + slack hops *)
  bootstrap_peers : int;  (** peers each server initially knows (load table) *)
  max_remote_digests : int;  (** bound on stored remote digests per server *)
  data_copies : int;
      (** static data replication degree: each node's data lives at its
          owner plus [data_copies − 1] fixed extra servers.  Orthogonal to
          the adaptive {e routing-state} replication (§1) — this knob is
          the "any data replication mechanism" the protocol combines with *)
  data_service_mean : float;  (** mean service time of a data fetch *)
  features : features;
  oracle_maps : bool;
      (** route with ground-truth host maps (§4.4's optimal-information
          reference); digest shortcuts are disabled under the oracle *)
  audit : bool;
      (** run the {!Invariant} auditor: protocol invariants are checked
          every [audit_every] engine events and at the end of every
          [Cluster.run_until]; violations collect into a report.  Also
          switched on (for any config) by the TERRADIR_AUDIT environment
          variable or the CLI's [--audit] flag *)
  audit_every : int;  (** auditor cadence, in executed engine events *)
  engine_domains : int;
      (** OCaml domains driving the event loop: 1 (default) is the
          sequential engine; [k >= 2] shards servers across [k] domains
          under the conservative synchronization windows of
          [Engine.configure].  Every observable output is byte-identical
          for any value — the knob is performance-only.  Clamped to
          [num_servers]; falls back to 1 when the run leaves no safe
          lookahead ([oracle_maps], or a latency floor of zero) *)
  seed : int;
}

val bcr : features
(** Full system: caching + replication + digests. *)

val bc : features
(** Caching only (replication and digests off). *)

val base : features
(** Plain hierarchical routing. *)

val default : t
(** The paper's defaults at simulation scale: 4096 servers, 20 ms service,
    25 ms network, queue bound 12, W = 0.5 s, T_high = 0.7, delta = 0.2,
    r_fact = 2, r_map = 4, 24 cache slots, 600 s replica idle timeout, 1 s post-shed cooldown, features = {!bcr}, seed 42.  Network faults
    are off (no jitter, no loss, timers disabled) — the ideal transport
    the paper evaluates under. *)

val validate : t -> unit
(** @raise Invalid_argument with a description of the first violated
    constraint (non-positive sizes, thresholds outside (0,1], etc.). *)

val scaled : t -> factor:float -> t
(** [scaled c ~factor] shrinks the cluster for cheap runs: multiplies
    [num_servers] by [factor] (min 2) — query rates are supplied by
    experiments and must be scaled by the caller alongside. *)
