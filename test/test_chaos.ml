(* Chaos scenario engine: determinism across engine shard counts, the
   acceptance trajectory (availability dips under fault, reconverges
   after heal), graceful leaves under active partitions, and the
   resilience-report schema contract.  The whole file runs under
   TERRADIR_AUDIT=1 (test/dune), so every Cluster.run_until inside
   Chaos.run ends with a full invariant pass. *)

open Terradir
open Terradir_namespace
open Terradir_workload
module Chaos = Terradir_chaos
module Report_check = Terradir_report_check.Report_check

let check_equal label a b =
  if not (String.equal a b) then begin
    let first_diff =
      let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
      let rec go i = function
        | x :: xs, y :: ys -> if String.equal x y then go (i + 1) (xs, ys) else (i, x, y)
        | x :: _, [] -> (i, x, "<missing>")
        | [], y :: _ -> (i, "<missing>", y)
        | [], [] -> (i, "", "")
      in
      go 1 (la, lb)
    in
    let line, x, y = first_diff in
    Alcotest.failf "%s: first difference at line %d:\n  a: %s\n  b: %s" label line x y
  end

(* The engine shard count is report metadata; mask it so the rest of the
   document can be compared byte-for-byte across K. *)
let masked_json r = Chaos.Report.to_json { r with Chaos.Report.engine_domains = 0 }

let campaign_report ~domains () =
  let campaign =
    match Chaos.Campaigns.find "partition-flash-crowd" with
    | Some c -> c
    | None -> Alcotest.fail "canned campaign partition-flash-crowd not registered"
  in
  let config = { Config.default with Config.engine_domains = domains } in
  Chaos.Campaigns.run_campaign ~config campaign ~servers:32 ~rate:150.0 ~seed:7

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_campaign_k_byte_identical () =
  let k1 = campaign_report ~domains:1 () in
  let k4 = campaign_report ~domains:4 () in
  check_equal "campaign JSON K=1 vs K=4" (masked_json k1) (masked_json k4);
  check_equal "campaign windows CSV K=1 vs K=4" (Chaos.Report.windows_csv k1)
    (Chaos.Report.windows_csv k4);
  (* repeated same-seed run: bit-for-bit reproducible *)
  let again = campaign_report ~domains:1 () in
  check_equal "campaign JSON rerun" (Chaos.Report.to_json k1) (Chaos.Report.to_json again)

let test_kill_fraction_deterministic () =
  let dead_set salt =
    let tree = Build.balanced ~arity:2 ~levels:6 in
    let config = { Config.default with Config.num_servers = 24; seed = 9 } in
    let cluster = Cluster.create ~config ~tree () in
    let timeline =
      Chaos.Timeline.make [ (2.0, Chaos.Action.Kill_fraction { fraction = 0.33; salt }) ]
    in
    ignore
      (Chaos.Chaos.run cluster
         ~workload:(Stream.unif ~rate:60.0 ~duration:6.0)
         ~workload_seed:4 ~timeline ()
        : Chaos.Report.t);
    List.filter (fun i -> not (Cluster.server cluster i).Server.alive) (List.init 24 Fun.id)
  in
  let a = dead_set 17 in
  Alcotest.(check (list int)) "same salt, same victims" a (dead_set 17);
  Alcotest.(check int) "fraction honored" 7 (List.length a);
  Alcotest.(check bool) "different salt, different victims" true (a <> dead_set 18)

let test_kill_fraction_spares_last_server () =
  let tree = Build.balanced ~arity:2 ~levels:4 in
  let config = { Config.default with Config.num_servers = 4; seed = 3 } in
  let cluster = Cluster.create ~config ~tree () in
  let timeline =
    Chaos.Timeline.make
      [
        (1.0, Chaos.Action.Kill_fraction { fraction = 0.9; salt = 1 });
        (2.0, Chaos.Action.Kill_fraction { fraction = 0.9; salt = 2 });
      ]
  in
  ignore
    (Chaos.Chaos.run cluster
       ~workload:(Stream.unif ~rate:20.0 ~duration:4.0)
       ~workload_seed:5 ~timeline ()
      : Chaos.Report.t);
  Alcotest.(check bool) "at least one survivor" true (Cluster.alive_servers cluster >= 1)

(* ------------------------------------------------------------------ *)
(* Acceptance trajectory                                               *)
(* ------------------------------------------------------------------ *)

let test_availability_dips_and_reconverges () =
  let r = campaign_report ~domains:1 () in
  let baseline =
    match r.Chaos.Report.baseline with
    | Some b -> b
    | None -> Alcotest.fail "campaign leaves room for a baseline"
  in
  Alcotest.(check bool) "healthy baseline" true (baseline.Chaos.Report.b_availability > 0.9);
  let floor = Chaos.Report.min_fault_availability r in
  Alcotest.(check bool)
    (Printf.sprintf "availability dips under the fault (%.4f)" floor)
    true
    (floor < baseline.Chaos.Report.b_availability -. r.Chaos.Report.slo.Chaos.Report.availability_drop);
  (match Chaos.Report.mean_time_to_reconvergence r with
  | None -> Alcotest.fail "heal reconverges within the run"
  | Some ttr ->
    Alcotest.(check bool)
      (Printf.sprintf "finite positive time-to-reconvergence (%.1f s)" ttr)
      true
      (Float.is_finite ttr && ttr > 0.0));
  (* the recovery bookkeeping matches the event log *)
  let recovery_events =
    List.filter (fun e -> e.Chaos.Report.e_recovery) r.Chaos.Report.events
  in
  Alcotest.(check int) "one recovery clock per recovery action"
    (List.length recovery_events)
    (List.length r.Chaos.Report.recoveries)

(* ------------------------------------------------------------------ *)
(* Graceful leave under an active partition, mid-flight queries        *)
(* ------------------------------------------------------------------ *)

let leave_under_partition_report ~domains () =
  let tree = Build.balanced ~arity:2 ~levels:6 in
  let config =
    {
      Config.default with
      Config.num_servers = 24;
      seed = 13;
      engine_domains = domains;
      rpc_timeout = 0.5;
      max_retries = 3;
      retry_backoff = 2.0;
    }
  in
  let cluster = Cluster.create ~config ~tree () in
  let minority = List.init 6 Fun.id in
  let rest = List.init 18 (fun i -> i + 6) in
  let timeline =
    Chaos.Timeline.make
      [
        (4.0, Chaos.Action.Partition { tag = "rack"; a = minority; b = rest; directed = false });
        (* leaves fire while the partition is live and queries are
           mid-flight: handoffs toward the far side are blocked, the
           leaver still dies cleanly *)
        (6.0, Chaos.Action.Graceful_leave [ 2; 3 ]);
        (7.0, Chaos.Action.Graceful_leave [ 10 ]);
        (10.0, Chaos.Action.Heal "rack");
        (13.0, Chaos.Action.Revive [ 2; 3; 10 ]);
      ]
  in
  let report =
    Chaos.Chaos.run ~window:2.0 ~scenario:"leave-under-partition" ~seed:13 cluster
      ~workload:(Stream.unif ~rate:200.0 ~duration:18.0)
      ~workload_seed:31 ~timeline ()
  in
  (cluster, report)

let test_graceful_leave_under_partition () =
  let cluster, r = leave_under_partition_report ~domains:1 () in
  (* audit ran at every run_until; re-check explicitly at the end state *)
  Cluster.check_invariants cluster;
  Alcotest.(check int) "everyone revived" 24 (Cluster.alive_servers cluster);
  (* the three leavers were actually down between leave and revive *)
  let down =
    List.filter
      (fun e -> String.equal e.Chaos.Report.e_kind "graceful_leave")
      r.Chaos.Report.events
  in
  Alcotest.(check int) "both leave actions fired" 2 (List.length down);
  (* queries were mid-flight throughout: every window carried traffic *)
  List.iter
    (fun w ->
      if w.Chaos.Report.w_end <= 18.0 then
        Alcotest.(check bool)
          (Printf.sprintf "window at %.0f s carried traffic" w.Chaos.Report.w_start)
          true
          (w.Chaos.Report.issued > 0))
    r.Chaos.Report.windows;
  (* nothing is left permanently unanswered once timers are armed *)
  Alcotest.(check int) "no unresolved backlog" 0 r.Chaos.Report.totals.Chaos.Report.unresolved

let test_graceful_leave_k_byte_identical () =
  let _, k1 = leave_under_partition_report ~domains:1 () in
  let _, k4 = leave_under_partition_report ~domains:4 () in
  check_equal "leave-under-partition JSON K=1 vs K=4" (masked_json k1) (masked_json k4)

(* ------------------------------------------------------------------ *)
(* Timeline validation                                                 *)
(* ------------------------------------------------------------------ *)

let test_timeline_validation () =
  let tree = Build.balanced ~arity:2 ~levels:5 in
  let config = { Config.default with Config.num_servers = 8; seed = 1 } in
  let mk () = Cluster.create ~config ~tree () in
  let run_with timeline =
    ignore
      (Chaos.Chaos.run (mk ()) ~workload:(Stream.unif ~rate:10.0 ~duration:2.0) ~workload_seed:1
         ~timeline ()
        : Chaos.Report.t)
  in
  (* the timeline is built inside the thunk: Timeline.make validates
     times itself, Chaos.run validates the actions against the cluster *)
  let raises name mk_timeline =
    match run_with (mk_timeline ()) with
    | () -> Alcotest.failf "%s: Invalid_argument expected" name
    | exception Invalid_argument _ -> ()
  in
  raises "out-of-range kill" (fun () -> Chaos.Timeline.make [ (1.0, Chaos.Action.Kill [ 8 ]) ]);
  raises "heal of unknown tag" (fun () ->
      Chaos.Timeline.make [ (1.0, Chaos.Action.Heal "nope") ]);
  raises "jitter above the configured ceiling" (fun () ->
      Chaos.Timeline.make [ (1.0, Chaos.Action.Set_jitter 0.5) ]);
  raises "fraction of one" (fun () ->
      Chaos.Timeline.make [ (1.0, Chaos.Action.Kill_fraction { fraction = 1.0; salt = 0 }) ]);
  raises "negative time" (fun () -> Chaos.Timeline.make [ (-1.0, Chaos.Action.Heal_all) ]);
  let crowd ~rate ~duration () =
    Chaos.Timeline.make
      [
        ( 1.0,
          Chaos.Action.Flash_crowd
            { phases = [ { Stream.duration; rate; dist = Stream.Uniform } ]; seed = 3 } );
      ]
  in
  raises "flash crowd at a NaN rate" (crowd ~rate:Float.nan ~duration:1.0);
  raises "flash crowd at an infinite rate" (crowd ~rate:Float.infinity ~duration:1.0);
  raises "flash crowd for a NaN duration" (crowd ~rate:10.0 ~duration:Float.nan);
  raises "flash crowd for an infinite duration" (crowd ~rate:10.0 ~duration:Float.infinity);
  (* a valid timeline with every remaining action kind goes through *)
  run_with
    (Chaos.Timeline.make
       [
         (0.5, Chaos.Action.Set_loss 0.01);
         (1.0, Chaos.Action.Rate_shift 2.0);
         (1.5, Chaos.Action.Set_loss 0.0);
       ])

(* ------------------------------------------------------------------ *)
(* Report schema contract                                              *)
(* ------------------------------------------------------------------ *)

let test_report_check_accepts_and_rejects () =
  let r = campaign_report ~domains:1 () in
  let json = Chaos.Report.to_json r in
  (match Report_check.validate json with
  | Ok stats ->
    Alcotest.(check int) "validator sees every window" (List.length r.Chaos.Report.windows)
      stats.Report_check.windows;
    Alcotest.(check int) "validator sees every event" (List.length r.Chaos.Report.events)
      stats.Report_check.events
  | Error errs ->
    Alcotest.failf "fresh report rejected: %s" (String.concat "; " errs));
  let replace ~needle ~by s =
    let nl = String.length needle in
    let buf = Buffer.create (String.length s) in
    let i = ref 0 in
    while !i <= String.length s - nl do
      if String.equal (String.sub s !i nl) needle then begin
        Buffer.add_string buf by;
        i := !i + nl
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.add_string buf (String.sub s !i (String.length s - !i));
    Buffer.contents buf
  in
  let corrupt needle replacement =
    match Report_check.validate (replace ~needle ~by:replacement json) with
    | Ok _ -> Alcotest.failf "corruption %S -> %S went undetected" needle replacement
    | Error _ -> ()
  in
  corrupt "\"version\": 1" "\"version\": 2";
  corrupt "\"schema\": \"terradir-resilience-report\"" "\"schema\": \"something-else\""

(* Corrupting numeric consistency (totals vs window sums) must also be
   caught; do it structurally rather than by string surgery. *)
let test_report_check_totals_consistency () =
  let r = campaign_report ~domains:1 () in
  let t = r.Chaos.Report.totals in
  let broken =
    { r with Chaos.Report.totals = { t with Chaos.Report.injected = t.Chaos.Report.injected + 1 } }
  in
  match Report_check.validate (Chaos.Report.to_json broken) with
  | Ok _ -> Alcotest.fail "inconsistent totals went undetected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* The resilience experiment (tiny scale)                              *)
(* ------------------------------------------------------------------ *)

let test_resilience_experiment_smoke () =
  let module R = Terradir_experiments.Resilience in
  let module Runner = Terradir_experiments.Runner in
  let events = Runner.events_executed () and words = Runner.minor_words_allocated () in
  let r = R.run ~scale:0.002 ~seed:5 () in
  Alcotest.(check bool) "events counted" true (Runner.events_executed () > events);
  Alcotest.(check bool) "allocation counted" true (Runner.minor_words_allocated () > words);
  Alcotest.(check int) "campaigns x r_facts" 12 (List.length r.R.rows);
  List.iter
    (fun (row : R.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s r=%.1f availability in range" row.R.campaign row.R.r_fact)
        true
        (row.R.min_availability >= 0.0 && row.R.min_availability <= 1.0))
    r.R.rows

let () =
  Alcotest.run "terradir_chaos"
    [
      ( "determinism",
        [
          Alcotest.test_case "campaign report byte-identical for K in {1,4}" `Slow
            test_campaign_k_byte_identical;
          Alcotest.test_case "kill_fraction seeded pick" `Slow test_kill_fraction_deterministic;
          Alcotest.test_case "kill_fraction spares a survivor" `Quick
            test_kill_fraction_spares_last_server;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "availability dips, then reconverges" `Slow
            test_availability_dips_and_reconverges;
          Alcotest.test_case "graceful leave under an active partition" `Slow
            test_graceful_leave_under_partition;
          Alcotest.test_case "leave-under-partition byte-identical for K in {1,4}" `Slow
            test_graceful_leave_k_byte_identical;
        ] );
      ( "contract",
        [
          Alcotest.test_case "timeline validation" `Quick test_timeline_validation;
          Alcotest.test_case "report_check accepts fresh, rejects corrupt" `Slow
            test_report_check_accepts_and_rejects;
          Alcotest.test_case "report_check catches inconsistent totals" `Slow
            test_report_check_totals_consistency;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "resilience experiment smoke" `Slow test_resilience_experiment_smoke;
        ] );
    ]
