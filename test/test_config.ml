(* Coverage for Config validation and presets. *)

open Terradir

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* [label]'s first word names the field the rejection message must
   mention, e.g. "net_loss" for "net_loss low". *)
let expect_invalid label tweak =
  let c = tweak Config.default in
  let field = List.hd (String.split_on_char ' ' label) in
  match Config.validate c with
  | () -> Alcotest.fail (label ^ ": expected rejection")
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s mentioned in %S" field msg)
      true
      (contains msg field)

let test_default_valid () = Config.validate Config.default

let test_validation_rejects () =
  expect_invalid "num_servers" (fun c -> { c with Config.num_servers = 0 });
  (* Peer tables pack [peer + 1] into 24 bits: 2^24 − 1 servers fit. *)
  expect_invalid "num_servers packed" (fun c -> { c with Config.num_servers = 1 lsl 24 });
  Config.validate { Config.default with Config.num_servers = (1 lsl 24) - 1 };
  expect_invalid "speed_spread" (fun c -> { c with Config.speed_spread = 0.5 });
  expect_invalid "service_mean" (fun c -> { c with Config.service_mean = 0.0 });
  expect_invalid "network_delay" (fun c -> { c with Config.network_delay = -0.1 });
  expect_invalid "net_jitter negative" (fun c -> { c with Config.net_jitter = -0.01 });
  expect_invalid "net_jitter above delay" (fun c ->
      { c with Config.net_jitter = c.Config.network_delay +. 0.01 });
  expect_invalid "net_loss low" (fun c -> { c with Config.net_loss = -0.1 });
  expect_invalid "net_loss high" (fun c -> { c with Config.net_loss = 1.1 });
  expect_invalid "net_loss nan" (fun c -> { c with Config.net_loss = Float.nan });
  expect_invalid "rpc_timeout" (fun c -> { c with Config.rpc_timeout = -1.0 });
  expect_invalid "max_retries" (fun c -> { c with Config.max_retries = -1 });
  expect_invalid "retry_backoff" (fun c -> { c with Config.retry_backoff = 0.9 });
  expect_invalid "high_water low" (fun c -> { c with Config.high_water = 0.0 });
  expect_invalid "high_water high" (fun c -> { c with Config.high_water = 1.5 });
  expect_invalid "high_water_factor" (fun c -> { c with Config.high_water_factor = -1.0 });
  expect_invalid "min_delta" (fun c -> { c with Config.min_delta = 0.0 });
  expect_invalid "r_fact" (fun c -> { c with Config.r_fact = -1.0 });
  expect_invalid "r_map" (fun c -> { c with Config.r_map = 0 });
  expect_invalid "cache_slots" (fun c -> { c with Config.cache_slots = -1 });
  (* The cache's LRU links are 2-byte positions: 65,535 slots fit. *)
  Alcotest.check_raises "cache_slots above the LRU bound"
    (Invalid_argument "Config: cache_slots must be in [0, 65535]") (fun () ->
      Config.validate { Config.default with Config.cache_slots = 65_536 });
  Config.validate { Config.default with Config.cache_slots = 65_535 };
  expect_invalid "replica_idle_timeout" (fun c -> { c with Config.replica_idle_timeout = 0.0 });
  expect_invalid "data_copies" (fun c -> { c with Config.data_copies = 0 });
  expect_invalid "engine_domains" (fun c -> { c with Config.engine_domains = 0 })

(* Every float field must be finite: comparisons such as [x < 0.0] are
   false for NaN, so range checks alone let it through. *)
let test_validation_rejects_non_finite () =
  let nan = Float.nan in
  expect_invalid "speed_spread nan" (fun c -> { c with Config.speed_spread = nan });
  expect_invalid "service_mean nan" (fun c -> { c with Config.service_mean = nan });
  expect_invalid "service_mean inf" (fun c -> { c with Config.service_mean = infinity });
  expect_invalid "network_delay nan" (fun c -> { c with Config.network_delay = nan });
  expect_invalid "network_delay inf" (fun c -> { c with Config.network_delay = infinity });
  expect_invalid "net_jitter nan" (fun c -> { c with Config.net_jitter = nan });
  expect_invalid "rpc_timeout nan" (fun c -> { c with Config.rpc_timeout = nan });
  expect_invalid "retry_backoff nan" (fun c -> { c with Config.retry_backoff = nan });
  expect_invalid "high_water nan" (fun c -> { c with Config.high_water = nan });
  expect_invalid "high_water_factor nan" (fun c -> { c with Config.high_water_factor = nan });
  expect_invalid "min_delta nan" (fun c -> { c with Config.min_delta = nan });
  expect_invalid "r_fact nan" (fun c -> { c with Config.r_fact = nan });
  expect_invalid "replica_idle_timeout nan" (fun c ->
      { c with Config.replica_idle_timeout = nan })

let test_presets () =
  Alcotest.(check bool) "bcr all on" true
    Config.(bcr.caching && bcr.replication && bcr.digests);
  Alcotest.(check bool) "bc caching only" true
    Config.(bc.caching && (not bc.replication) && not bc.digests);
  Alcotest.(check bool) "base all off" true
    Config.(
      (not base.caching) && (not base.replication) && not base.digests)

(* The retransmission timers' schedule: attempt [k] waits
   [rpc_timeout × retry_backoff^k]; [validate] keeps both in range. *)
let test_backoff_schedule () =
  let c = { Config.default with Config.rpc_timeout = 0.1; retry_backoff = 2.0 } in
  List.iteri
    (fun attempt expected ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "attempt %d" attempt)
        expected
        (Config.attempt_timeout c ~attempt))
    [ 0.1; 0.2; 0.4; 0.8; 1.6 ];
  Alcotest.(check (float 1e-12)) "factor 1 is flat" 0.5
    (Config.attempt_timeout { c with Config.rpc_timeout = 0.5; retry_backoff = 1.0 } ~attempt:7);
  expect_invalid "rpc_timeout negative" (fun c -> { c with Config.rpc_timeout = -1.0 });
  expect_invalid "retry_backoff below 1" (fun c -> { c with Config.retry_backoff = 0.5 })

let () =
  Alcotest.run "terradir_config"
    [
      ( "config",
        [
          Alcotest.test_case "default valid" `Quick test_default_valid;
          Alcotest.test_case "validation rejects" `Quick test_validation_rejects;
          Alcotest.test_case "validation rejects non-finite floats" `Quick
            test_validation_rejects_non_finite;
          Alcotest.test_case "presets" `Quick test_presets;
        ] );
      ("backoff", [ Alcotest.test_case "schedule" `Quick test_backoff_schedule ]);
    ]
