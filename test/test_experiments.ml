(* Smoke tests for the experiment harnesses: every table/figure module runs
   at a tiny scale and produces data with the paper's qualitative shape. *)

module E = Terradir_experiments

(* Keep the default test run on the sequential path; the determinism test
   below opts into domains explicitly via [Runner.with_jobs]. *)
let () = E.Runner.set_jobs (Some 1)

let scale = 0.002 (* 8 servers *)

let scale_mid = 0.008
(* 33 servers — the scale where hierarchy/cache effects are measurable:
   with 8 servers every peer owns a sixteenth of the namespace and routes
   are trivially short, so cache and replication ablations show nothing. *)

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let test_common_setup () =
  let setup = E.Common.make ~scale E.Common.NS in
  Alcotest.(check int) "servers scaled" 8 setup.E.Common.config.Terradir.Config.num_servers;
  let nodes = Terradir_namespace.Tree.size setup.E.Common.tree in
  Alcotest.(check bool) "nodes per server ~8" true (nodes >= 4 * 8 && nodes <= 16 * 8);
  (* rate conversion: calibrated to utilization targets — positive, linear
     in the paper rate, and in a plausible band for 8 servers at ρ=0.8
     (capacity 400 svc/s, a few hops per query). *)
  let r20 = setup.E.Common.rate 20000.0 in
  let r4 = setup.E.Common.rate 4000.0 in
  Alcotest.(check (float 1e-9)) "linear in paper lambda" (5.0 *. r4) r20;
  Alcotest.(check bool)
    (Printf.sprintf "plausible magnitude (%.1f q/s)" r20)
    true
    (r20 > 10.0 && r20 < 400.0);
  Alcotest.check_raises "scale validation"
    (Invalid_argument "Common.make: scale must be in (0, 1]") (fun () ->
      ignore (E.Common.make ~scale:0.0 E.Common.NS))

let test_common_nc_namespace () =
  let setup = E.Common.make ~scale E.Common.NC in
  let tree = setup.E.Common.tree in
  (* the scaled-down N_C is tiny (~80 nodes); just require tree shape *)
  Alcotest.(check bool) "coda-like is irregular" true
    (Terradir_namespace.Tree.max_depth tree >= 3)

let test_warmups_staggered () =
  let w = List.map E.Common.warmup_for [ 0.75; 1.00; 1.25; 1.50 ] in
  Alcotest.(check (list (float 1e-9))) "10s increments" [ 40.0; 50.0; 60.0; 70.0 ] w

(* [f ()], checked to have moved Runner's event and minor-word counters:
   what BENCH_results.json divides into words per event. *)
let counted label f =
  let events = E.Runner.events_executed () and words = E.Runner.minor_words_allocated () in
  let r = f () in
  Alcotest.(check bool) (label ^ " counts its events") true (E.Runner.events_executed () > events);
  Alcotest.(check bool) (label ^ " counts its allocation") true
    (E.Runner.minor_words_allocated () > words);
  r

let test_table1 () =
  let r = counted "table1" (fun () -> E.Table1.run ~seed:42 ()) in
  Alcotest.(check bool) "all four kinds live" true r.E.Table1.verified;
  Alcotest.(check int) "kinds" 4 (List.length r.E.Table1.kinds_seen)

let test_fig3 () =
  let r = E.Fig3.run ~scale ~duration:90.0 ~seed:42 () in
  Alcotest.(check int) "five streams" 5 (List.length r.E.Fig3.series);
  List.iter
    (fun (label, fr) ->
      Alcotest.(check int) (label ^ " bins") 90 (Array.length fr);
      Alcotest.(check bool) (label ^ " fractions sane") true
        (Array.for_all (fun x -> x >= 0.0 && x < 2.0) fr);
      Alcotest.(check bool) (label ^ " not catastrophic") true (mean fr < 0.5))
    r.E.Fig3.series

let test_fig4 () =
  let r = E.Fig4.run ~scale ~duration:90.0 ~seed:42 () in
  Alcotest.(check int) "five streams" 5 (List.length r.E.Fig4.series);
  (* replication happens, and the per-second creation fraction is small
     relative to the query rate (lightweight protocol) *)
  List.iter
    (fun (label, fr) ->
      let total = Array.fold_left ( +. ) 0.0 fr in
      Alcotest.(check bool) (label ^ " creations happen") true (total > 0.0);
      Alcotest.(check bool) (label ^ " lightweight") true (mean fr < 0.25))
    r.E.Fig4.series

let test_fig5 () =
  let r = E.Fig5.run ~scale ~duration:90.0 ~seed:42 () in
  Alcotest.(check int) "10 streams x 3 systems" 30 (List.length r.E.Fig5.cells);
  let avg system =
    let cells = List.filter (fun c -> c.E.Fig5.system = system) r.E.Fig5.cells in
    List.fold_left (fun acc c -> acc +. c.E.Fig5.drop_fraction) 0.0 cells
    /. float_of_int (List.length cells)
  in
  let b = avg "B" and bcr = avg "BCR" in
  Alcotest.(check bool)
    (Printf.sprintf "B (%.3f) drops more than BCR (%.3f)" b bcr)
    true (b > bcr);
  (* "barely usable" B only emerges at larger scales (fewer hosted nodes
     per server = longer routes); the smoke check is directional only. *)
  Alcotest.(check bool) "B drops non-trivially" true (b > 0.02)

let test_fig6 () =
  let r = E.Fig6.run ~scale ~duration:90.0 ~seed:42 () in
  Alcotest.(check int) "three rates" 3 (List.length r.E.Fig6.runs);
  let means =
    List.map (fun s -> mean s.E.Fig6.mean_load) r.E.Fig6.runs
  in
  (match means with
  | [ low; mid; high ] ->
    Alcotest.(check bool)
      (Printf.sprintf "load grows with rate (%.3f %.3f %.3f)" low mid high)
      true
      (low < mid && mid < high)
  | _ -> Alcotest.fail "expected three runs");
  List.iter
    (fun s ->
      Alcotest.(check bool) "max >= mean pointwise" true
        (Array.for_all2 ( <= )
           (Array.map2 Float.min s.E.Fig6.mean_load s.E.Fig6.max_load)
           s.E.Fig6.max_load))
    r.E.Fig6.runs

let test_fig7 () =
  let r = E.Fig7.run ~scale:scale_mid ~duration:90.0 ~seed:42 () in
  Alcotest.(check int) "six runs" 6 (List.length r.E.Fig7.runs);
  List.iter
    (fun s ->
      Alcotest.(check bool) "levels covered" true (Array.length s.E.Fig7.per_level >= 4))
    r.E.Fig7.runs;
  (* at the highest rate, replication definitely happened *)
  let hottest = List.nth r.E.Fig7.runs 5 in
  Alcotest.(check bool) "replicas created" true
    (Array.exists (fun x -> x > 0.0) hottest.E.Fig7.per_level)

let test_fig8 () =
  let r = E.Fig8.run ~scale ~duration:240.0 ~seed:42 () in
  Alcotest.(check int) "four runs" 4 (List.length r.E.Fig8.runs);
  List.iter
    (fun s ->
      Alcotest.(check int) "four minutes" 4 (Array.length s.E.Fig8.per_minute);
      (* stabilization: the last minute creates fewer replicas than the
         busiest minute *)
      let peak = Array.fold_left Float.max 0.0 s.E.Fig8.per_minute in
      Alcotest.(check bool)
        (Printf.sprintf "%s decays (peak %.0f, final %.0f)" s.E.Fig8.label peak s.E.Fig8.final_rate)
        true
        (s.E.Fig8.final_rate <= peak))
    r.E.Fig8.runs

let test_fig9 () =
  let r = E.Fig9.run ~scale ~duration:60.0 ~seed:42 () in
  Alcotest.(check int) "six sizes" 6 (List.length r.E.Fig9.rows);
  let rec doubling = function
    | a :: (b : E.Fig9.row) :: rest ->
      Alcotest.(check int) "doubles" (2 * a.E.Fig9.servers) b.E.Fig9.servers;
      doubling (b :: rest)
    | _ -> ()
  in
  doubling r.E.Fig9.rows;
  List.iter
    (fun (row : E.Fig9.row) ->
      Alcotest.(check bool) "queries resolved" true (row.E.Fig9.resolved > 0);
      Alcotest.(check bool) "latency positive" true (row.E.Fig9.mean_latency > 0.0))
    r.E.Fig9.rows;
  (* replication volume grows with system size (λ ∝ S): compare ends *)
  let first = List.hd r.E.Fig9.rows and last = List.nth r.E.Fig9.rows 5 in
  Alcotest.(check bool) "replication scales" true
    (last.E.Fig9.replications > first.E.Fig9.replications)

let test_rfact () =
  let r = E.Rfact.run ~scale ~duration:100.0 ~seed:42 () in
  Alcotest.(check int) "4 r_facts x 3 map modes" 12 (List.length r.E.Rfact.rows);
  List.iter
    (fun (row : E.Rfact.row) ->
      Alcotest.(check bool) "accuracy in range" true
        (row.E.Rfact.accuracy >= 0.0 && row.E.Rfact.accuracy <= 1.0))
    r.E.Rfact.rows;
  let avg mode =
    let rows = List.filter (fun (row : E.Rfact.row) -> row.E.Rfact.mode = mode) r.E.Rfact.rows in
    List.fold_left (fun acc (row : E.Rfact.row) -> acc +. row.E.Rfact.accuracy) 0.0 rows
    /. float_of_int (List.length rows)
  in
  (* the paper's §4.4 ordering: oracle is optimal; digests approximate it;
     bare maps trail *)
  Alcotest.(check bool) "oracle near-perfect" true (avg E.Rfact.Oracle > 0.99);
  Alcotest.(check bool)
    (Printf.sprintf "digest accuracy %.4f vs bare %.4f" (avg E.Rfact.Digests)
       (avg E.Rfact.No_digests))
    true
    (avg E.Rfact.Digests >= avg E.Rfact.No_digests -. 0.02)

let test_ablations () =
  let r = counted "ablations" (fun () -> E.Ablations.run ~scale:scale_mid ~duration:90.0 ~seed:42 ()) in
  Alcotest.(check int) "all variants ran" 15 (List.length r.E.Ablations.rows);
  let metric row key = List.assoc key row.E.Ablations.metrics in
  let find dim variant =
    List.find
      (fun (row : E.Ablations.row) ->
        row.E.Ablations.dimension = dim && row.E.Ablations.variant = variant)
      r.E.Ablations.rows
  in
  (* §2.4: path propagation sheds more load than endpoint-only caching —
     drops are its win (resolved-query hop counts suffer survivor bias).
     Direction emerges clearly from ~100 servers; at smoke scale allow a
     small tolerance. *)
  let path = find "cache-policy" "path-propagation" in
  let ends = find "cache-policy" "endpoints-only" in
  Alcotest.(check bool)
    (Printf.sprintf "path propagation drops %.3f <~ endpoints %.3f"
       (metric path "drop_fraction") (metric ends "drop_fraction"))
    true
    (metric path "drop_fraction" <= metric ends "drop_fraction" +. 0.03);
  (* caches help: no cache drops at least as much as the default *)
  let no_cache = find "cache-size" "0" and default_cache = find "cache-size" "24" in
  Alcotest.(check bool) "cache reduces drops" true
    (metric default_cache "drop_fraction" <= metric no_cache "drop_fraction" +. 0.02);
  (* adaptive replication drops less than none under a shifting hot-spot *)
  let adaptive = find "replication" "adaptive" and none = find "replication" "none" in
  Alcotest.(check bool) "adaptive beats none" true
    (metric adaptive "drop_fraction" < metric none "drop_fraction")

let test_hetero () =
  let r = E.Hetero.run ~scale ~duration:90.0 ~seed:42 () in
  Alcotest.(check int) "3 spreads x 2 systems" 6 (List.length r.E.Hetero.rows);
  let drop system spread =
    (List.find
       (fun (row : E.Hetero.row) -> row.E.Hetero.system = system && row.E.Hetero.spread = spread)
       r.E.Hetero.rows)
      .E.Hetero.drop_fraction
  in
  (* Heterogeneity hurts BC more than it hurts BCR (absolute penalty). *)
  let penalty system = drop system 16.0 -. drop system 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "BCR penalty %.4f <= BC penalty %.4f" (penalty "BCR") (penalty "BC"))
    true
    (penalty "BCR" <= penalty "BC" +. 0.01)

let test_csv_export () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "terradir_csv_test" in
  let files = E.Csv_export.export ~id:"fig7" ~scale ~seed:42 ~dir () in
  Alcotest.(check int) "one file for fig7" 1 (List.length files);
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path);
      let header = In_channel.with_open_text path In_channel.input_line in
      match header with
      | Some h -> Alcotest.(check bool) "has csv header" true (String.contains h ',')
      | None -> Alcotest.fail "empty csv")
    files;
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Csv_export.export: unknown experiment nope") (fun () ->
      ignore (E.Csv_export.export ~id:"nope" ~dir ()))

(* A directory that does not exist yet, parents included, is created. *)
let test_csv_export_nested_dir () =
  let base = Filename.temp_file "terradir_csv_nested" "" in
  Sys.remove base;
  let dir = Filename.concat (Filename.concat base "a") "b" in
  let files = E.Csv_export.export ~id:"table1" ~scale ~seed:42 ~dir () in
  Alcotest.(check bool) "files written" true (files <> []);
  List.iter (fun path -> Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path)) files

(* Every registry id exports, table1 included, and no two tables share a
   CSV name.  75 s clears the longest uzipf warmup (70 s); fig8 needs more
   than its 100 s uniform prefix. *)
let test_registry_exports () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "terradir_csv_registry_test" in
  let names =
    List.concat_map
      (fun id ->
        let duration = if id = "fig8" then 110.0 else 75.0 in
        let files = E.Csv_export.export ~id ~scale ~duration ~seed:42 ~dir () in
        Alcotest.(check bool) (id ^ " exports") true (files <> []);
        List.map Filename.basename files)
      (E.Registry.ids ())
  in
  Alcotest.(check int) "distinct CSV names" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* The terminal and the CSV export render the same tables: the files equal
   the CSV encoding of what the entry's [tables] returns. *)
let test_export_matches_tables () =
  let module T = Terradir_util.Tablefmt in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "terradir_csv_tables_test" in
  List.iter
    (fun id ->
      let e = Option.get (E.Registry.find id) in
      let tables = e.E.Registry.tables ~scale ~seed:42 () in
      let files = E.Csv_export.export ~id ~scale ~seed:42 ~dir () in
      Alcotest.(check (list string)) (id ^ " file per table")
        (List.map (fun (t : T.table) -> t.name ^ ".csv") tables)
        (List.map Filename.basename files);
      List.iter2
        (fun (t : T.table) path ->
          Alcotest.(check string) (t.name ^ " bytes") (T.csv ~header:t.header t.rows)
            (In_channel.with_open_bin path In_channel.input_all))
        tables files)
    [ "table1"; "fig7"; "capacity" ]

let test_csv_export_duration () =
  (* [duration] reaches the figure: one data row per simulated second.
     75 s clears fig3's longest uniform warmup (70 s). *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "terradir_csv_duration_test" in
  let files = E.Csv_export.export ~id:"fig3" ~scale ~duration:75.0 ~seed:42 ~dir () in
  match List.find_opt (fun p -> Filename.basename p = "fig3_drop_fraction.csv") files with
  | Some path ->
    let lines = In_channel.with_open_text path In_channel.input_lines in
    Alcotest.(check int) "75 data rows" 75 (List.length lines - 1)
  | None -> Alcotest.fail "fig3 wrote no fig3_drop_fraction.csv"

(* The tentpole guarantee: fanning cells over domains changes wall-clock
   only.  Run the same figure sequentially and at jobs=4 and require
   structurally identical results, then byte-compare a CSV export. *)
let test_parallel_determinism () =
  let seq = E.Fig3.run ~scale ~duration:90.0 ~seed:42 () in
  let par = E.Runner.with_jobs 4 (fun () -> E.Fig3.run ~scale ~duration:90.0 ~seed:42 ()) in
  Alcotest.(check int) "jobs pin restored" 1 (E.Runner.jobs ());
  Alcotest.(check (list string)) "same stream labels"
    (List.map fst seq.E.Fig3.series) (List.map fst par.E.Fig3.series);
  List.iter2
    (fun (label, a) (_, b) ->
      Alcotest.(check bool) (label ^ " bit-identical") true (a = b))
    seq.E.Fig3.series par.E.Fig3.series;
  let r5_seq = E.Fig5.run ~scale ~duration:80.0 ~seed:42 () in
  let r5_par = E.Runner.with_jobs 4 (fun () -> E.Fig5.run ~scale ~duration:80.0 ~seed:42 ()) in
  Alcotest.(check bool) "fig5 cells bit-identical" true (r5_seq = r5_par);
  (* rfact and hetero cells share one setup (tree and calibrated rate)
     per r_fact or spread across domains. *)
  let rf_seq = E.Rfact.run ~scale ~duration:100.0 ~seed:42 () in
  let rf_par = E.Runner.with_jobs 4 (fun () -> E.Rfact.run ~scale ~duration:100.0 ~seed:42 ()) in
  Alcotest.(check bool) "rfact rows bit-identical" true (rf_seq = rf_par);
  let h_seq = E.Hetero.run ~scale ~duration:90.0 ~seed:42 () in
  let h_par = E.Runner.with_jobs 4 (fun () -> E.Hetero.run ~scale ~duration:90.0 ~seed:42 ()) in
  Alcotest.(check bool) "hetero rows bit-identical" true (h_seq = h_par)

let test_parallel_csv_identical () =
  let tmp = Filename.get_temp_dir_name () in
  let dir_seq = Filename.concat tmp "terradir_csv_seq" in
  let dir_par = Filename.concat tmp "terradir_csv_par" in
  let files_seq = E.Csv_export.export ~id:"fig7" ~scale ~seed:42 ~dir:dir_seq () in
  let files_par =
    E.Runner.with_jobs 4 (fun () -> E.Csv_export.export ~id:"fig7" ~scale ~seed:42 ~dir:dir_par ())
  in
  Alcotest.(check int) "same file count" (List.length files_seq) (List.length files_par);
  List.iter2
    (fun a b ->
      let read path = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) (Filename.basename a ^ " bytes") (read a) (read b))
    files_seq files_par

let test_registry_complete () =
  let ids = E.Registry.ids () in
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [ "table1"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "rfact"; "ablations"; "hetero" ];
  Alcotest.(check bool) "find works" true (E.Registry.find "fig3" <> None);
  Alcotest.(check bool) "unknown" true (E.Registry.find "fig99" = None)

let () =
  Alcotest.run "terradir_experiments"
    [
      ( "common",
        [
          Alcotest.test_case "setup scaling" `Quick test_common_setup;
          Alcotest.test_case "nc namespace" `Quick test_common_nc_namespace;
          Alcotest.test_case "warmups" `Quick test_warmups_staggered;
          Alcotest.test_case "registry" `Quick test_registry_complete;
        ] );
      ( "figures",
        [
          Alcotest.test_case "table1" `Slow test_table1;
          Alcotest.test_case "fig3" `Slow test_fig3;
          Alcotest.test_case "fig4" `Slow test_fig4;
          Alcotest.test_case "fig5" `Slow test_fig5;
          Alcotest.test_case "fig6" `Slow test_fig6;
          Alcotest.test_case "fig7" `Slow test_fig7;
          Alcotest.test_case "fig8" `Slow test_fig8;
          Alcotest.test_case "fig9" `Slow test_fig9;
          Alcotest.test_case "rfact" `Slow test_rfact;
          Alcotest.test_case "ablations" `Slow test_ablations;
          Alcotest.test_case "hetero" `Slow test_hetero;
          Alcotest.test_case "csv export" `Slow test_csv_export;
          Alcotest.test_case "csv export honours duration" `Slow test_csv_export_duration;
          Alcotest.test_case "csv export creates a nested directory" `Slow test_csv_export_nested_dir;
          Alcotest.test_case "every registry id exports" `Slow test_registry_exports;
          Alcotest.test_case "csv export equals the printed tables" `Slow test_export_matches_tables;
        ] );
      ( "parallelism",
        [
          Alcotest.test_case "determinism across jobs" `Slow test_parallel_determinism;
          Alcotest.test_case "csv identical across jobs" `Slow test_parallel_csv_identical;
        ] );
    ]
