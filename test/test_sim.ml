(* Tests for the discrete-event engine and the random-variate samplers. *)

open Terradir_util
open Terradir_sim

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order on ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "a" :: !log;
      Engine.schedule e ~delay:0.5 (fun () -> log := "c" :: !log));
  Engine.schedule e ~delay:1.2 (fun () -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "handler-scheduled events interleave" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter (fun d -> Engine.schedule e ~delay:d (fun () -> fired := d :: !fired)) [ 1.0; 2.0; 3.0 ];
  Engine.run ~until:2.5 e;
  Alcotest.(check (list (float 1e-9))) "only events <= until" [ 1.0; 2.0 ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock advanced to until" 2.5 (Engine.now e);
  Alcotest.(check int) "event pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "remaining fires" 3 (List.length !fired)

let test_engine_until_boundary_inclusive () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~delay:2.0 (fun () -> fired := true);
  Engine.run ~until:2.0 e;
  Alcotest.(check bool) "event exactly at until fires" true !fired

let test_engine_validation () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative or non-finite delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) (fun () -> ()));
  Engine.schedule e ~delay:5.0 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past absolute time"
    (Invalid_argument "Engine.schedule_at: scheduling into the past") (fun () ->
      Engine.schedule_at e 1.0 (fun () -> ()));
  Alcotest.check_raises "past until" (Invalid_argument "Engine.run: until is in the past")
    (fun () -> Engine.run ~until:1.0 e)

(* The layout is checked once, at creation: one case per message.  No
   engine here is ever run, so no worker domain starts. *)
let test_engine_layout_validation () =
  Alcotest.check_raises "no lane" (Invalid_argument "Engine.create: domains must be >= 1")
    (fun () -> ignore (Engine.create ~domains:0 ()));
  Alcotest.check_raises "no lookahead"
    (Invalid_argument "Engine.create: domains > 1 requires a positive lookahead") (fun () ->
      ignore (Engine.create ~domains:2 ~lookahead:0.0 ~shard_of:[| 0; 1 |] ()));
  Alcotest.check_raises "lane out of range"
    (Invalid_argument "Engine.create: shard assignment out of range") (fun () ->
      ignore (Engine.create ~domains:2 ~lookahead:0.025 ~shard_of:[| 0; 2 |] ()));
  (* the context id must fit the tie's 19 context bits, slot 0 taken by
     the pseudo-contexts *)
  Alcotest.check_raises "too many contexts" (Invalid_argument "Engine.create: too many contexts")
    (fun () -> ignore (Engine.create ~shard_of:(Array.make (1 lsl 19) 0) ()));
  let e = Engine.create ~domains:2 ~lookahead:0.025 ~shard_of:[| 0; 1; 1 |] () in
  Alcotest.(check int) "two shard lanes and the coordinator" 3 (Engine.lane_count e);
  Alcotest.(check int) "domains" 2 (Engine.domains e);
  Alcotest.(check int) "one lane by default" 1 (Engine.lane_count (Engine.create ()))

let test_engine_step_and_counters () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun () -> ());
  Engine.schedule e ~delay:2.0 (fun () -> ());
  Alcotest.(check bool) "step true" true (Engine.step e);
  Alcotest.(check int) "one executed" 1 (Engine.events_executed e);
  Alcotest.(check bool) "step true" true (Engine.step e);
  Alcotest.(check bool) "step false when empty" false (Engine.step e);
  Alcotest.(check int) "two executed" 2 (Engine.events_executed e)

(* ------------------------------------------------------------------ *)
(* Dist                                                                *)
(* ------------------------------------------------------------------ *)

let test_poisson_gap_mean () =
  let rng = Splitmix.create 5 in
  let s = Stats.create () in
  for _ = 1 to 100_000 do
    Stats.add s (Dist.poisson_gap rng ~rate:50.0)
  done;
  Alcotest.(check bool) "mean gap ~ 1/50" true (abs_float (Stats.mean s -. 0.02) < 0.001);
  Alcotest.check_raises "rate validation"
    (Invalid_argument "Dist.poisson_gap: rate must be positive") (fun () ->
      ignore (Dist.poisson_gap rng ~rate:0.0))

let test_zipf_probabilities () =
  let z = Dist.Zipf.create ~alpha:1.0 ~n:100 in
  let total = ref 0.0 in
  for k = 0 to 99 do
    total := !total +. Dist.Zipf.probability z k
  done;
  Alcotest.(check (float 1e-9)) "probabilities sum to 1" 1.0 !total;
  Alcotest.(check bool) "monotone decreasing" true
    (Dist.Zipf.probability z 0 > Dist.Zipf.probability z 1);
  (* Zipf(1): p(0)/p(9) = 10 *)
  Alcotest.(check (float 1e-6)) "rank ratio" 10.0
    (Dist.Zipf.probability z 0 /. Dist.Zipf.probability z 9)

let test_zipf_alpha_zero_uniform () =
  let z = Dist.Zipf.create ~alpha:0.0 ~n:50 in
  for k = 0 to 49 do
    Alcotest.(check (float 1e-9)) "uniform" 0.02 (Dist.Zipf.probability z k)
  done

let test_zipf_sampling_matches_pmf () =
  let n = 20 in
  let z = Dist.Zipf.create ~alpha:1.2 ~n in
  let rng = Splitmix.create 11 in
  let counts = Array.make n 0 in
  let draws = 200_000 in
  for _ = 1 to draws do
    let k = Dist.Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to n - 1 do
    let expected = Dist.Zipf.probability z k *. float_of_int draws in
    let got = float_of_int counts.(k) in
    Alcotest.(check bool)
      (Printf.sprintf "rank %d: got %.0f expected %.0f" k got expected)
      true
      (abs_float (got -. expected) < Float.max 80.0 (0.05 *. expected))
  done

let test_zipf_validation () =
  Alcotest.check_raises "n" (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Dist.Zipf.create ~alpha:1.0 ~n:0));
  Alcotest.check_raises "alpha" (Invalid_argument "Zipf.create: alpha must be non-negative")
    (fun () -> ignore (Dist.Zipf.create ~alpha:(-0.1) ~n:5));
  let z = Dist.Zipf.create ~alpha:1.0 ~n:5 in
  Alcotest.check_raises "rank" (Invalid_argument "Zipf.probability: rank out of range")
    (fun () -> ignore (Dist.Zipf.probability z 5))

let prop_engine_executes_all =
  QCheck.Test.make ~name:"engine: every scheduled event runs exactly once" ~count:200
    QCheck.(small_list (float_bound_inclusive 100.0))
    (fun delays ->
      let e = Engine.create () in
      let count = ref 0 in
      List.iter (fun d -> Engine.schedule e ~delay:d (fun () -> incr count)) delays;
      Engine.run e;
      !count = List.length delays)

let prop_zipf_samples_in_range =
  QCheck.Test.make ~name:"zipf: samples stay in [0, n)" ~count:100
    QCheck.(pair (int_range 1 100) (float_bound_inclusive 2.0))
    (fun (n, alpha) ->
      let z = Dist.Zipf.create ~alpha ~n in
      let rng = Splitmix.create (n + int_of_float (alpha *. 100.0)) in
      List.for_all
        (fun _ ->
          let k = Dist.Zipf.sample z rng in
          k >= 0 && k < n)
        (List.init 100 Fun.id))

let () =
  Alcotest.run "terradir_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "order" `Quick test_engine_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "until inclusive" `Quick test_engine_until_boundary_inclusive;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "layout validation" `Quick test_engine_layout_validation;
          Alcotest.test_case "step/counters" `Quick test_engine_step_and_counters;
        ] );
      ( "dist",
        [
          Alcotest.test_case "poisson gap mean" `Quick test_poisson_gap_mean;
          Alcotest.test_case "zipf pmf" `Quick test_zipf_probabilities;
          Alcotest.test_case "zipf alpha=0" `Quick test_zipf_alpha_zero_uniform;
          Alcotest.test_case "zipf sampling" `Quick test_zipf_sampling_matches_pmf;
          Alcotest.test_case "zipf validation" `Quick test_zipf_validation;
        ] );
      ( "sim-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_engine_executes_all; prop_zipf_samples_in_range ] );
    ]
