(* Golden-output regression tests: figure CSVs must stay byte-identical to
   the committed goldens under test/golden/.  This is the guard the
   determinism lint and the hashtable-order fixes are held to — reordering
   an iteration, resorting a result list, or touching RNG draw order shows
   up here as a byte diff.

   Regenerate (bless) after an *intentional* output change with:

     TERRADIR_BLESS=$PWD/test/golden dune exec test/test_golden.exe
*)

open Terradir_experiments

let scale = 0.002
let seed = 42

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

(* Compare [content] against the committed golden byte-for-byte; on
   mismatch report the first differing line rather than dumping both
   files.  With TERRADIR_BLESS=<dir> set, rewrite the golden instead. *)
let check_golden name content =
  match Sys.getenv_opt "TERRADIR_BLESS" with
  | Some dir ->
    write_file (Filename.concat dir name) content;
    Printf.printf "blessed %s (%d bytes)\n%!" name (String.length content)
  | None ->
    let golden_path = Filename.concat "golden" name in
    if not (Sys.file_exists golden_path) then
      Alcotest.failf "missing golden %s — run with TERRADIR_BLESS to create it" golden_path;
    let expected = read_file golden_path in
    if not (String.equal expected content) then begin
      let lines s = String.split_on_char '\n' s in
      let el = lines expected and al = lines content in
      let rec first_diff i = function
        | e :: es, a :: as_ -> if String.equal e a then first_diff (i + 1) (es, as_) else (i, e, a)
        | e :: _, [] -> (i, e, "<missing>")
        | [], a :: _ -> (i, "<missing>", a)
        | [], [] -> (i, "<equal?>", "<equal?>")
      in
      let line, e, a = first_diff 1 (el, al) in
      Alcotest.failf "%s differs from golden at line %d:\n  golden: %s\n  actual: %s" name line e a
    end

let fig3_golden () =
  let paths = Csv_export.export ~id:"fig3" ~scale ~duration:90.0 ~seed ~dir:"_golden_out" () in
  let name = "fig3_drop_fraction.csv" in
  check_golden name (read_file (List.find (fun p -> Filename.basename p = name) paths))

let fig7_golden () =
  let dir = "_golden_out" in
  let paths = Csv_export.export ~id:"fig7" ~scale ~seed ~dir () in
  List.iter
    (fun path -> check_golden (Filename.basename path) (read_file path))
    paths

(* The capacity experiment runs with the analytic (probe-free) injection
   rate: this golden pins it — a drifted rate formula is a byte diff here
   before it is a wrong number in BENCH_results.json. *)
let capacity_golden () =
  let dir = "_golden_out" in
  let paths = Csv_export.export ~id:"capacity" ~scale ~seed ~dir () in
  List.iter
    (fun path -> check_golden (Filename.basename path) (read_file path))
    paths

(* The rpc-retry, fetch-failover and churn paths: loss, two kill waves
   and a revival with 30 % of resolved lookups followed by a data fetch.
   Pins the cluster's counters (timeouts, retransmits, late replies,
   failed fetches) and the per-window resilience report. *)
let churn_fetch_golden () =
  let open Terradir in
  let module Chaos = Terradir_chaos in
  let servers = 64 and seed = 7 in
  let spec = Chaos.Campaigns.churn_ramp.Chaos.Campaigns.spec ~servers ~rate:100.0 ~seed in
  let tree = Terradir_namespace.Build.balanced ~arity:2 ~levels:9 in
  let config = spec.config_tweak { Config.default with Config.num_servers = servers; seed } in
  let cluster = Cluster.create ~config ~tree () in
  let report =
    Chaos.Chaos.run ~drain:spec.drain ~window:spec.window ~slo:spec.slo ~fetch_probability:0.3
      cluster ~workload:spec.workload ~workload_seed:seed ~timeline:spec.timeline ()
  in
  check_golden "churn_fetch.csv"
    (Csv_export.metrics_csv (Cluster.metrics cluster) ^ Chaos.Report.windows_csv report)

let () =
  Runner.set_jobs (Some 1);
  Alcotest.run "golden"
    [
      ( "figures",
        [
          Alcotest.test_case "fig3 drop-fraction CSV is byte-identical" `Slow fig3_golden;
          Alcotest.test_case "fig7 replicas-per-level CSV is byte-identical" `Slow fig7_golden;
          Alcotest.test_case "capacity CSV is byte-identical" `Slow capacity_golden;
          Alcotest.test_case "churn-fetch counters and windows are byte-identical" `Slow
            churn_fetch_golden;
        ] );
    ]
