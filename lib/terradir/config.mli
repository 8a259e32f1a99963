(** Protocol and simulation parameters.

    One record holds every tunable the experiments vary: service time and
    network behaviour (§4.1), the replication protocol knobs of §3
    (high-water threshold, minimum shed delta, replication factor, map
    size), and the feature switches that realize the paper's Fig. 5
    ablations (B / BC / BCR).  Values no caller varies are constants in the
    module that reads them (see {!default}). *)

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
  replica_idle_timeout : float;  (** soft-state: evict replicas unused this long *)
  data_copies : int;
      (** static data replication degree: each node's data lives at its
          owner plus [data_copies − 1] fixed extra servers.  Orthogonal to
          the adaptive {e routing-state} replication (§1) — this knob is
          the "any data replication mechanism" the protocol combines with *)
  features : features;
  oracle_maps : bool;
      (** route with ground-truth host maps (§4.4's optimal-information
          reference); digest shortcuts are disabled under the oracle *)
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
    25 ms network, T_high = 0.7, delta = 0.2, r_fact = 2, r_map = 4, 24
    cache slots, 600 s replica idle timeout, features = {!bcr}, seed 42.
    Network faults are off (no jitter, no loss, timers disabled) — the
    ideal transport the paper evaluates under.

    Fixed model constants, one per reading module, not part of [t]:
    - {!Server}: [queue_capacity] = 12 (request queue bound, §4.1),
      [load_window] = 0.5 s (W), [max_remote_digests] = 64;
    - {!Cluster}: [ctrl_service] = 2 ms, [data_service_mean] = 40 ms,
      [eviction_scan_period] = 10 s, [bootstrap_peers] = 8,
      [audit_every] = 10 000 events;
    - {!Protocol}: the replication session timings [max_attempts] = 3,
      [retry_delay] = 1 s, [success_cooldown] = 1 s;
    - a query is dropped after [Cluster.hop_budget] = 4 × tree depth + 16
      hops. *)

val validate : t -> unit
(** @raise Invalid_argument naming the field of the first violated
    constraint (a non-finite float, non-positive sizes, thresholds
    outside (0,1], more servers than the peer stores' packed keys hold
    ([2{^24} − 1]), etc.). *)

val attempt_timeout : t -> attempt:int -> float
(** [rpc_timeout × retry_backoff{^attempt}]: the timer an issuer grants
    attempt number [attempt] (0 = the original transmission). *)
