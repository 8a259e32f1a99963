(* Tests for query streams and the scenario driver (§4.1 methodology). *)

open Terradir_namespace
open Terradir
open Terradir_workload

let tree = Build.balanced ~arity:2 ~levels:7 (* 255 nodes *)

(* ------------------------------------------------------------------ *)
(* Stream constructors                                                 *)
(* ------------------------------------------------------------------ *)

let test_unif_constructor () =
  match Stream.unif ~rate:100.0 ~duration:30.0 with
  | [ p ] ->
    Alcotest.(check (float 1e-9)) "duration" 30.0 p.Stream.duration;
    Alcotest.(check (float 1e-9)) "rate" 100.0 p.Stream.rate;
    Alcotest.(check bool) "uniform" true (p.Stream.dist = Stream.Uniform)
  | _ -> Alcotest.fail "one phase expected"

let test_uzipf_constructor () =
  let phases = Stream.uzipf ~rate:50.0 ~warmup:40.0 ~alpha:1.25 ~shift_every:45.0 ~shifts:4 in
  Alcotest.(check int) "warmup + shifts" 5 (List.length phases);
  (match phases with
  | warm :: rest ->
    Alcotest.(check bool) "warmup uniform" true (warm.Stream.dist = Stream.Uniform);
    List.iter
      (fun p ->
        match p.Stream.dist with
        | Stream.Zipf { alpha; reshuffle } ->
          Alcotest.(check (float 1e-9)) "alpha" 1.25 alpha;
          Alcotest.(check bool) "reshuffles" true reshuffle
        | Stream.Uniform -> Alcotest.fail "zipf expected")
      rest
  | [] -> Alcotest.fail "phases expected");
  Alcotest.(check (float 1e-9)) "total duration" 220.0 (Stream.total_duration phases)

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let test_sampler_uniform_coverage () =
  let s = Stream.sampler ~tree ~seed:3 in
  let counts = Array.make (Tree.size tree) 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let v = Stream.sample s in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = draws / Tree.size tree in
  Array.iteri
    (fun v c ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d near uniform (%d)" v c)
        true
        (abs (c - expected) < expected))
    counts

let test_sampler_zipf_skew () =
  let s = Stream.sampler ~tree ~seed:3 in
  Stream.install s (Stream.Zipf { alpha = 1.2; reshuffle = true });
  let counts = Array.make (Tree.size tree) 0 in
  for _ = 1 to 50_000 do
    let v = Stream.sample s in
    counts.(v) <- counts.(v) + 1
  done;
  (* the rank-0 node should dominate *)
  let hottest = ref 0 in
  Array.iteri (fun v c -> if c > counts.(!hottest) then hottest := v) counts;
  Alcotest.(check int) "hottest is rank 0" 0 (Stream.rank_of_node s !hottest);
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  Alcotest.(check bool) "heavy head" true
    (float_of_int sorted.(0) > 0.05 *. 50_000.0)

let test_reshuffle_changes_ranking () =
  let s = Stream.sampler ~tree ~seed:3 in
  Stream.install s (Stream.Zipf { alpha = 1.0; reshuffle = true });
  let hot_before = ref (-1) in
  Array.iteri (fun v _ -> if Stream.rank_of_node s v = 0 then hot_before := v)
    (Array.make (Tree.size tree) 0);
  Stream.install s (Stream.Zipf { alpha = 1.0; reshuffle = true });
  let hot_after = ref (-1) in
  Array.iteri (fun v _ -> if Stream.rank_of_node s v = 0 then hot_after := v)
    (Array.make (Tree.size tree) 0);
  (* (1/255 chance of a false failure is avoided by the fixed seed) *)
  Alcotest.(check bool) "hot node moved" true (!hot_before <> !hot_after)

let test_no_reshuffle_keeps_ranking () =
  let s = Stream.sampler ~tree ~seed:3 in
  Stream.install s (Stream.Zipf { alpha = 1.0; reshuffle = true });
  let rank v = Stream.rank_of_node s v in
  let before = List.init 10 rank in
  Stream.install s (Stream.Zipf { alpha = 1.5; reshuffle = false });
  Alcotest.(check (list int)) "ranking preserved across alpha change" before (List.init 10 rank)

(* ------------------------------------------------------------------ *)
(* Scenario driver                                                     *)
(* ------------------------------------------------------------------ *)

let mk_cluster () =
  let config = { Config.default with Config.num_servers = 12; seed = 2 } in
  Cluster.create ~config ~tree ()

let test_scenario_injection_rate () =
  let cluster = mk_cluster () in
  Scenario.run cluster ~phases:(Stream.unif ~rate:200.0 ~duration:20.0) ~seed:7;
  let injected = (Cluster.metrics cluster).Metrics.injected in
  (* Poisson(200 × 20 = 4000): allow ±10% *)
  Alcotest.(check bool)
    (Printf.sprintf "injected %d ~ 4000" injected)
    true
    (injected > 3600 && injected < 4400)

let test_scenario_phase_rates () =
  let cluster = mk_cluster () in
  let phases =
    [
      { Stream.duration = 10.0; rate = 50.0; dist = Stream.Uniform };
      { Stream.duration = 10.0; rate = 400.0; dist = Stream.Uniform };
    ]
  in
  Scenario.run cluster ~phases ~seed:7;
  let per_second = Terradir_util.Timeseries.sums (Cluster.metrics cluster).Metrics.injected_ts in
  let first = Array.fold_left ( +. ) 0.0 (Array.sub per_second 0 10) in
  let second = Array.fold_left ( +. ) 0.0 (Array.sub per_second 10 (Array.length per_second - 10)) in
  Alcotest.(check bool)
    (Printf.sprintf "rates honored per phase (%.0f then %.0f)" first second)
    true
    (first < 800.0 && second > 3000.0)

let test_scenario_on_phase_callback () =
  let cluster = mk_cluster () in
  let seen = ref [] in
  let phases = Stream.uzipf ~rate:50.0 ~warmup:5.0 ~alpha:1.0 ~shift_every:5.0 ~shifts:2 in
  Scenario.run cluster ~phases ~seed:7 ~on_phase:(fun i p -> seen := (i, p.Stream.rate) :: !seen);
  Alcotest.(check int) "every phase announced" 3 (List.length !seen);
  Alcotest.(check (list int)) "in order" [ 0; 1; 2 ] (List.rev_map fst !seen)

let test_scenario_validation () =
  let cluster = mk_cluster () in
  Alcotest.check_raises "empty" (Invalid_argument "Scenario.run: empty phase list") (fun () ->
      Scenario.run cluster ~phases:[] ~seed:1);
  (* Non-finite values are rejected by [start], before anything is
     scheduled: an infinite rate makes every arrival gap 0 and would hang
     the run at its start, a NaN one injects nothing, and an infinite
     duration never ends. *)
  List.iter
    (fun (label, rate, duration, msg) ->
      Alcotest.check_raises label (Invalid_argument ("Scenario.run: " ^ msg)) (fun () ->
          let phases = [ { Stream.duration; rate; dist = Stream.Uniform } ] in
          ignore (Scenario.start cluster ~phases ~seed:1 : Scenario.driver)))
    [
      ("bad rate", 0.0, 1.0, "rate must be positive");
      ("nan rate", Float.nan, 1.0, "rate must be positive");
      ("infinite rate", Float.infinity, 1.0, "rate must be positive");
      ("nan duration", 10.0, Float.nan, "duration must be positive");
      ("infinite duration", 10.0, Float.infinity, "duration must be positive");
    ]

let () =
  Alcotest.run "terradir_workload"
    [
      ( "stream",
        [
          Alcotest.test_case "unif" `Quick test_unif_constructor;
          Alcotest.test_case "uzipf" `Quick test_uzipf_constructor;
          Alcotest.test_case "uniform coverage" `Quick test_sampler_uniform_coverage;
          Alcotest.test_case "zipf skew" `Quick test_sampler_zipf_skew;
          Alcotest.test_case "reshuffle" `Quick test_reshuffle_changes_ranking;
          Alcotest.test_case "no reshuffle" `Quick test_no_reshuffle_keeps_ranking;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "injection rate" `Slow test_scenario_injection_rate;
          Alcotest.test_case "phase rates" `Slow test_scenario_phase_rates;
          Alcotest.test_case "phase callback" `Quick test_scenario_on_phase_callback;
          Alcotest.test_case "validation" `Quick test_scenario_validation;
        ] );
    ]
