(* Observability subsystem tests:

   - Hist quantile accuracy (the 3% relative-error bound of the
     log-bucketed layout);
   - Recorder ring-buffer overwrite order (qcheck: the newest
     [capacity] events survive, in recording order);
   - span reconstruction and Chrome-trace export from a live cluster
     run, with the trace validated by the tools/trace_check shape
     checker CI uses;
   - the Metrics CSV export carrying every counter exactly once;
   - the determinism hard constraint: fig3's figure CSV is
     byte-identical between obs Off and obs Full. *)

open Terradir_namespace
open Terradir
open Terradir_workload
open Terradir_obs
module E = Terradir_experiments
module Check = Terradir_trace_check.Trace_check

(* ---- histograms ---- *)

let test_hist_quantiles () =
  let h = Hist.create () in
  for i = 1 to 1000 do
    Hist.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Hist.count h);
  Alcotest.(check (float 1e-9)) "mean is exact" 500.5
    (List.assoc "mean" (Hist.summary_fields h));
  Alcotest.(check (float 1e-9)) "min is exact" 1.0 (Hist.min_value h);
  Alcotest.(check (float 1e-9)) "max is exact" 1000.0 (Hist.max_value h);
  Alcotest.(check (float 1e-9)) "p100 = max" 1000.0 (Hist.percentile h 1.0);
  List.iter
    (fun q ->
      let exact = q *. 1000.0 in
      let got = Hist.percentile h q in
      if Float.abs (got -. exact) /. exact > 0.04 then
        Alcotest.failf "p%g: got %g, want %g +/- 4%%" (q *. 100.0) got exact)
    [ 0.5; 0.9; 0.95; 0.99 ]

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "empty count" 0 (Hist.count h);
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Hist.percentile h 0.5);
  Alcotest.(check (float 0.0)) "empty max" 0.0 (Hist.max_value h)

let test_hist_underflow_bucket () =
  let h = Hist.create () in
  Hist.add h (-5.0);
  Hist.add h 0.0;
  Hist.add h Float.nan;
  Alcotest.(check int) "non-positive values all land" 3 (Hist.count h)

(* ---- recorder ring buffer ---- *)

(* Events carry their sequence number as qid, so surviving entries reveal
   both which events were kept and their order. *)
let prop_ring_overwrite_order =
  QCheck.Test.make ~name:"recorder: newest [capacity] events survive, in order" ~count:300
    QCheck.(pair (int_bound 50) (int_bound 200))
    (fun (capacity, n) ->
      let r = Recorder.create ~capacity in
      for i = 0 to n - 1 do
        Recorder.record r ~time:(float_of_int i) ~tie:0 ~sub:0 ~server:i
          (Event.Query_injected { qid = i; dst = 0 })
      done;
      (* a capacity-0 recorder (the disabled sink's store) ignores records
         entirely, counter included *)
      let counted = if capacity = 0 then 0 else n in
      let retained = min counted capacity in
      Recorder.total r = counted
      && Recorder.retained r = retained
      && List.for_all2
           (fun (entry : Recorder.entry) i ->
             entry.Recorder.server = i
             && entry.Recorder.time = float_of_int i
             && match entry.Recorder.event with
                | Event.Query_injected { qid; _ } -> qid = i
                | _ -> false)
           (Recorder.to_list r)
           (List.init retained (fun k -> counted - retained + k)))

(* ---- live run: spans and trace export ---- *)

let traced_run () =
  let tree = Build.balanced ~arity:2 ~levels:6 in
  let config = { Config.default with Config.num_servers = 24; seed = 9 } in
  let obs = Obs.create ~level:Obs.Full ~probe_every:500 () in
  let cluster = Cluster.create ~obs ~config ~tree () in
  Scenario.run cluster ~phases:(Stream.unif ~rate:150.0 ~duration:10.0) ~seed:33;
  (cluster, obs)

let test_span_reconstruction () =
  let cluster, obs = traced_run () in
  let m = Cluster.metrics cluster in
  let spans = Span.of_recorder (Obs.recorder obs) in
  let resolved =
    List.filter (fun sp -> match sp.Span.span_outcome with Span.Resolved _ -> true | _ -> false) spans
  in
  Alcotest.(check int) "every query has a span" m.Metrics.injected (List.length spans);
  Alcotest.(check int) "every resolution has a span" m.Metrics.resolved (List.length resolved);
  List.iter
    (fun sp ->
      if sp.Span.span_stop < sp.Span.span_start then
        Alcotest.failf "q%d: stop before start" sp.Span.span_qid;
      let rec sorted = function
        | a :: (b :: _ as rest) -> a.Span.seg_start <= b.Span.seg_start && sorted rest
        | _ -> true
      in
      if not (sorted sp.Span.span_segs) then
        Alcotest.failf "q%d: segments out of order" sp.Span.span_qid;
      List.iter
        (fun (g : Span.seg) ->
          if g.Span.seg_stop < g.Span.seg_start then
            Alcotest.failf "q%d: segment stop before start" sp.Span.span_qid;
          if g.Span.seg_start < sp.Span.span_start -. 1e-9
             || g.Span.seg_stop > sp.Span.span_stop +. 1e-9
          then Alcotest.failf "q%d: segment outside the span" sp.Span.span_qid)
        sp.Span.span_segs)
    spans;
  List.iter
    (fun sp ->
      let services =
        List.filter (fun g -> g.Span.seg_kind = Span.Service) sp.Span.span_segs
      in
      match sp.Span.span_outcome with
      | Span.Resolved { latency; hops } ->
        if services = [] then Alcotest.failf "q%d: resolved without service" sp.Span.span_qid;
        if latency < 0.0 then Alcotest.failf "q%d: negative latency" sp.Span.span_qid;
        if hops < 0 then Alcotest.failf "q%d: negative hops" sp.Span.span_qid
      | Span.Dropped _ | Span.In_flight -> ())
    resolved

let test_chrome_trace_valid () =
  let _cluster, obs = traced_run () in
  let trace = Export.chrome_trace (Obs.recorder obs) in
  match Check.validate trace with
  | Ok { Check.events; by_phase; tracks; async_pairs } ->
    Alcotest.(check bool) "has events" true (events > 100);
    Alcotest.(check bool) "has service slices" true (List.mem_assoc "X" by_phase);
    Alcotest.(check bool) "has async pairs" true (async_pairs > 0);
    Alcotest.(check bool) "one track per active server" true (tracks > 1 && tracks <= 25)
  | Error errs -> Alcotest.failf "trace rejected:\n%s" (String.concat "\n" errs)

let test_checker_rejects_garbage () =
  let reject source =
    match Check.validate source with
    | Ok _ -> Alcotest.failf "checker accepted %S" source
    | Error _ -> ()
  in
  reject "";
  reject "{\"traceEvents\": 3}";
  reject {|{"traceEvents":[{"ph":"X","pid":1,"ts":1}]}|};
  (* a "b" with no matching "e" *)
  reject {|{"traceEvents":[{"ph":"b","cat":"q","id":"1","pid":1,"ts":0}]}|}

let test_events_and_probes_csv () =
  let _cluster, obs = traced_run () in
  let events = Export.events_csv (Obs.recorder obs) in
  let probes = Export.probes_csv (Obs.probes obs) in
  let lines s = List.length (String.split_on_char '\n' (String.trim s)) in
  Alcotest.(check bool) "events csv has rows" true (lines events > 100);
  Alcotest.(check bool) "probes csv has rows" true (lines probes > 24);
  Alcotest.(check string) "events header" "time,server,kind,qid,detail"
    (List.hd (String.split_on_char '\n' events));
  Alcotest.(check string) "probes header" "time,server,load,queue_depth,replicas,cache_hit_rate"
    (List.hd (String.split_on_char '\n' probes))

(* ---- the metrics CSV drift guard (one field-spec list) ---- *)

let test_metrics_csv_exact_once () =
  let names = Metrics.csv_header in
  Alcotest.(check bool) "counters exist" true (List.length names >= 20);
  Alcotest.(check int) "no duplicate counter names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  let m = Metrics.create () in
  Alcotest.(check int) "row aligns with header" (List.length names)
    (List.length (Metrics.csv_row m));
  let csv = E.Csv_export.metrics_csv m in
  let rows = String.split_on_char '\n' csv in
  List.iter
    (fun name ->
      let n =
        List.length (List.filter (fun row -> List.hd (String.split_on_char ',' row) = name) rows)
      in
      Alcotest.(check int) (name ^ " appears exactly once") 1 n)
    names;
  List.iter
    (fun stat ->
      Alcotest.(check bool) (stat ^ " present") true
        (List.exists (fun row -> List.hd (String.split_on_char ',' row) = stat) rows))
    [ "latency_p50"; "latency_p99"; "hops_p95"; "latency_count" ]

(* ---- determinism: recording must not change results ---- *)

let fig3_csv () =
  let r = E.Fig3.run ~scale:0.002 ~duration:90.0 ~seed:42 () in
  String.concat ""
    (List.map
       (fun (t : Terradir_util.Tablefmt.table) -> Terradir_util.Tablefmt.csv ~header:t.header t.rows)
       (E.Fig3.tables r))

let test_fig3_off_vs_full () =
  E.Runner.set_jobs (Some 1);
  let off = fig3_csv () in
  let full = E.Runner.with_obs ~level:Obs.Full ~probe_every:500 fig3_csv in
  if not (String.equal off full) then begin
    let ol = String.split_on_char '\n' off and fl = String.split_on_char '\n' full in
    let rec first_diff i = function
      | a :: rest, b :: rest' -> if String.equal a b then first_diff (i + 1) (rest, rest') else (i, a, b)
      | a :: _, [] -> (i, a, "<missing>")
      | [], b :: _ -> (i, "<missing>", b)
      | [], [] -> (i, "<equal?>", "<equal?>")
    in
    let line, a, b = first_diff 1 (ol, fl) in
    Alcotest.failf "fig3 CSV differs at line %d:\n  off : %s\n  full: %s" line a b
  end

let () =
  Alcotest.run "terradir_obs"
    [
      ( "hist",
        [
          Alcotest.test_case "quantiles within bucket error" `Quick test_hist_quantiles;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "underflow bucket" `Quick test_hist_underflow_bucket;
        ] );
      ( "recorder",
        List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_ring_overwrite_order ] );
      ( "spans",
        [
          Alcotest.test_case "reconstruction from a live run" `Quick test_span_reconstruction;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace passes the shape checker" `Quick test_chrome_trace_valid;
          Alcotest.test_case "checker rejects malformed traces" `Quick test_checker_rejects_garbage;
          Alcotest.test_case "event and probe CSVs" `Quick test_events_and_probes_csv;
        ] );
      ( "metrics-csv",
        [
          Alcotest.test_case "every counter exactly once" `Quick test_metrics_csv_exact_once;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig3 CSV byte-identical at obs off vs full" `Slow
            test_fig3_off_vs_full;
        ] );
    ]
