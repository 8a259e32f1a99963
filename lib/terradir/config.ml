type features = { caching : bool; replication : bool; digests : bool }

type placement = Uniform | Round_robin

type cache_policy = Path_propagation | Endpoints_only

type t = {
  num_servers : int;
  placement : placement;
  speed_spread : float;
  service_mean : float;
  network_delay : float;
  net_jitter : float;
  net_loss : float;
  rpc_timeout : float;
  max_retries : int;
  retry_backoff : float;
  high_water : float;
  high_water_factor : float;
  min_delta : float;
  r_fact : float;
  r_map : int;
  cache_slots : int;
  cache_policy : cache_policy;
  replica_idle_timeout : float;
  data_copies : int;
  features : features;
  oracle_maps : bool;
  engine_domains : int;
  seed : int;
}

let bcr = { caching = true; replication = true; digests = true }

let bc = { caching = true; replication = false; digests = false }

let base = { caching = false; replication = false; digests = false }

let default =
  {
    num_servers = 4096;
    placement = Uniform;
    speed_spread = 1.0;
    service_mean = 0.020;
    network_delay = 0.025;
    net_jitter = 0.0;
    net_loss = 0.0;
    rpc_timeout = 0.0;
    max_retries = 3;
    retry_backoff = 2.0;
    high_water = 0.7;
    high_water_factor = 1.6;
    min_delta = 0.2;
    r_fact = 2.0;
    r_map = 4;
    cache_slots = 24;
    cache_policy = Path_propagation;
    replica_idle_timeout = 600.0;
    data_copies = 1;
    features = bcr;
    oracle_maps = false;
    engine_domains = 1;
    seed = 42;
  }

let validate c =
  let fail msg = invalid_arg ("Config: " ^ msg) in
  List.iter
    (fun (name, v) -> if not (Float.is_finite v) then fail (name ^ " must be finite"))
    [
      ("speed_spread", c.speed_spread);
      ("service_mean", c.service_mean);
      ("network_delay", c.network_delay);
      ("net_jitter", c.net_jitter);
      ("net_loss", c.net_loss);
      ("rpc_timeout", c.rpc_timeout);
      ("retry_backoff", c.retry_backoff);
      ("high_water", c.high_water);
      ("high_water_factor", c.high_water_factor);
      ("min_delta", c.min_delta);
      ("r_fact", c.r_fact);
      ("replica_idle_timeout", c.replica_idle_timeout);
    ];
  if c.num_servers < 1 then fail "num_servers must be >= 1";
  (* Peer stores pack [peer + 1] into a key of [Packed_table.key_bits]. *)
  let max_servers = (1 lsl Terradir_util.Packed_table.key_bits) - 1 in
  if c.num_servers > max_servers then fail (Printf.sprintf "num_servers must be <= %d" max_servers);
  if c.speed_spread < 1.0 then fail "speed_spread must be >= 1";
  if c.service_mean <= 0.0 then fail "service_mean must be positive";
  if c.network_delay < 0.0 then fail "network_delay must be non-negative";
  if c.net_jitter < 0.0 || c.net_jitter > c.network_delay then
    fail "net_jitter must be in [0, network_delay]";
  if not (c.net_loss >= 0.0 && c.net_loss <= 1.0) then fail "net_loss must be in [0, 1]";
  if c.rpc_timeout < 0.0 then fail "rpc_timeout must be non-negative";
  if c.max_retries < 0 then fail "max_retries must be non-negative";
  if c.retry_backoff < 1.0 then fail "retry_backoff must be >= 1";
  if not (c.high_water > 0.0 && c.high_water <= 1.0) then fail "high_water must be in (0, 1]";
  if c.high_water_factor < 0.0 then fail "high_water_factor must be non-negative";
  if not (c.min_delta > 0.0 && c.min_delta <= 1.0) then fail "min_delta must be in (0, 1]";
  if c.r_fact < 0.0 then fail "r_fact must be non-negative";
  if c.r_map < 1 then fail "r_map must be >= 1";
  if c.cache_slots < 0 || c.cache_slots > Terradir_util.Lru.max_capacity then fail "cache_slots must be in [0, 65535]";
  if c.replica_idle_timeout <= 0.0 then fail "replica_idle_timeout must be positive";
  if c.data_copies < 1 then fail "data_copies must be >= 1";
  if c.engine_domains < 1 then fail "engine_domains must be >= 1"

let attempt_timeout c ~attempt = c.rpc_timeout *. (c.retry_backoff ** float_of_int attempt)
