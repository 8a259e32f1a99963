open Terradir_util

let write_file dir name content =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc content);
  path

(* One row per index, columns padded with empty cells. *)
let series_csv ~index_label columns =
  let n = List.fold_left (fun acc (_, a) -> max acc (Array.length a)) 0 columns in
  let rows =
    List.init n (fun i ->
        string_of_int i
        :: List.map
             (fun (_, a) -> if i < Array.length a then Printf.sprintf "%.6f" a.(i) else "")
             columns)
  in
  Tablefmt.csv ~header:(index_label :: List.map fst columns) rows

let table_csv ~header rows = Tablefmt.csv ~header rows

(* Machine-readable counter snapshot, driven by the same field-spec list
   as the struct itself ([Metrics.counter_fields]) so a counter added to
   [Metrics.t] cannot silently miss the export; histogram-derived latency
   and hop statistics ride along under stable prefixed names. *)
let metrics_csv metrics =
  let module M = Terradir.Metrics in
  let module Hist = Terradir_obs.Hist in
  let counter_rows =
    List.map (fun (name, get) -> [ name; string_of_int (get metrics) ]) M.counter_fields
  in
  let hist_rows prefix h =
    List.map (fun (k, v) -> [ prefix ^ "_" ^ k; Printf.sprintf "%.6f" v ]) (Hist.summary_fields h)
  in
  table_csv ~header:[ "metric"; "value" ]
    (counter_rows
    @ hist_rows "latency" metrics.M.latency_hist
    @ hist_rows "hops" metrics.M.hops_hist)

let f = Printf.sprintf

let fig3 ?scale ?duration ?seed dir =
  let r = Fig3.run ?scale ?duration ?seed () in
  [ write_file dir "fig3_drop_fraction.csv" (series_csv ~index_label:"second" r.Fig3.series) ]

let fig4 ?scale ?duration ?seed dir =
  let r = Fig4.run ?scale ?duration ?seed () in
  [
    write_file dir "fig4_replica_creation.csv" (series_csv ~index_label:"second" r.Fig4.series);
  ]

let fig5 ?scale ?duration ?seed dir =
  let r = Fig5.run ?scale ?duration ?seed () in
  let rows =
    List.map
      (fun (c : Fig5.cell) -> [ c.Fig5.stream; c.Fig5.system; f "%.6f" c.Fig5.drop_fraction ])
      r.Fig5.cells
  in
  [ write_file dir "fig5_drops.csv" (table_csv ~header:[ "stream"; "system"; "drop_fraction" ] rows) ]

let fig6 ?scale ?duration ?seed dir =
  let r = Fig6.run ?scale ?duration ?seed () in
  let left =
    List.concat_map
      (fun s -> [ (s.Fig6.label ^ "_avg", s.Fig6.mean_load); (s.Fig6.label ^ "_max", s.Fig6.max_load) ])
      r.Fig6.runs
  in
  let right = List.map (fun s -> (s.Fig6.label ^ "_max11", s.Fig6.smoothed_max)) r.Fig6.runs in
  [
    write_file dir "fig6_load.csv" (series_csv ~index_label:"second" left);
    write_file dir "fig6_smoothed_max.csv" (series_csv ~index_label:"second" right);
  ]

let fig7 ?scale ?duration ?seed dir =
  let r = Fig7.run ?scale ?duration ?seed () in
  let columns = List.map (fun s -> (s.Fig7.label, s.Fig7.per_level)) r.Fig7.runs in
  [ write_file dir "fig7_replicas_per_level.csv" (series_csv ~index_label:"level" columns) ]

let fig8 ?scale ?duration ?seed dir =
  let r = Fig8.run ?scale ?duration ?seed () in
  let columns = List.map (fun s -> (s.Fig8.label, s.Fig8.per_minute)) r.Fig8.runs in
  [ write_file dir "fig8_replicas_per_minute.csv" (series_csv ~index_label:"minute" columns) ]

let fig9 ?scale ?duration ?seed dir =
  let r = Fig9.run ?scale ?duration ?seed () in
  let rows =
    List.map
      (fun (row : Fig9.row) ->
        [
          string_of_int row.Fig9.servers;
          string_of_int row.Fig9.nodes;
          f "%.4f" row.Fig9.mean_hops;
          f "%.6f" row.Fig9.mean_latency;
          string_of_int row.Fig9.replications;
          string_of_int row.Fig9.drops;
          string_of_int row.Fig9.resolved;
        ])
      r.Fig9.rows
  in
  [
    write_file dir "fig9_scalability.csv"
      (table_csv
         ~header:[ "servers"; "nodes"; "mean_hops"; "latency_s"; "replications"; "drops"; "resolved" ]
         rows);
  ]

let rfact ?scale ?duration ?seed dir =
  let r = Rfact.run ?scale ?duration ?seed () in
  let rows =
    List.map
      (fun (row : Rfact.row) ->
        [
          f "%.3f" row.Rfact.r_fact;
          Rfact.mode_label row.Rfact.mode;
          f "%.6f" row.Rfact.drop_fraction;
          string_of_int row.Rfact.replicas_created;
          string_of_int row.Rfact.replicas_evicted;
          f "%.6f" row.Rfact.accuracy;
          f "%.6f" row.Rfact.shortcut_share;
        ])
      r.Rfact.rows
  in
  [
    write_file dir "rfact_ablation.csv"
      (table_csv
         ~header:[ "r_fact"; "maps"; "drop_fraction"; "created"; "evicted"; "accuracy"; "shortcut_share" ]
         rows);
  ]

let ablations ?scale ?duration ?seed dir =
  let r = Ablations.run ?scale ?duration ?seed () in
  let keys = [ "drop_fraction"; "mean_hops"; "mean_latency_ms"; "replicas" ] in
  let rows =
    List.map
      (fun (row : Ablations.row) ->
        row.Ablations.dimension :: row.Ablations.variant
        :: List.map
             (fun k ->
               match List.assoc_opt k row.Ablations.metrics with
               | Some v -> f "%.6f" v
               | None -> "")
             keys)
      r.Ablations.rows
  in
  [ write_file dir "ablations.csv" (table_csv ~header:([ "dimension"; "variant" ] @ keys) rows) ]

let hetero ?scale ?duration ?seed dir =
  let r = Hetero.run ?scale ?duration ?seed () in
  let rows =
    List.map
      (fun (row : Hetero.row) ->
        [
          f "%.1f" row.Hetero.spread;
          row.Hetero.system;
          f "%.6f" row.Hetero.drop_fraction;
          f "%.6f" row.Hetero.mean_latency;
          f "%.6f" row.Hetero.mean_load_of_max;
        ])
      r.Hetero.rows
  in
  [
    write_file dir "hetero.csv"
      (table_csv ~header:[ "spread"; "system"; "drop_fraction"; "latency_s"; "mean_max_load" ] rows);
  ]

(* Campaign timelines are fixed-length: duration does not apply. *)
let resilience ?scale ?duration:_ ?seed dir =
  let r = Resilience.run ?scale ?seed () in
  let rows =
    List.map
      (fun (row : Resilience.row) ->
        [
          row.Resilience.campaign;
          f "%.2f" row.Resilience.r_fact;
          f "%.6f" row.Resilience.baseline_availability;
          f "%.6f" row.Resilience.min_availability;
          f "%.6f" row.Resilience.drop_fraction;
          string_of_int row.Resilience.unresolved;
          string_of_int row.Resilience.recovered;
          string_of_int row.Resilience.recoveries;
          (match row.Resilience.mean_ttr with None -> "" | Some t -> f "%.6f" t);
        ])
      r.Resilience.rows
  in
  [
    write_file dir "resilience.csv"
      (table_csv
         ~header:
           [
             "campaign"; "r_fact"; "baseline_availability"; "min_availability"; "drop_fraction";
             "unresolved"; "recovered"; "recoveries"; "mean_ttr_s";
           ]
         rows);
  ]

(* Sized in queries, not seconds: duration does not apply. *)
let capacity ?scale ?duration:_ ?seed dir =
  let r = Capacity.run ?scale ?seed () in
  let rows = List.map (fun (k, v) -> [ k; v ]) (Capacity.rows r) in
  [ write_file dir "capacity.csv" (table_csv ~header:[ "metric"; "value" ] rows) ]

let exporters =
  [
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("rfact", rfact);
    ("ablations", ablations);
    ("hetero", hetero);
    ("resilience", resilience);
    ("capacity", capacity);
  ]

let exportable = List.map fst exporters

let export ~id ?scale ?duration ?seed ~dir () =
  match List.assoc_opt id exporters with
  | Some writer -> writer ?scale ?duration ?seed dir
  | None -> invalid_arg ("Csv_export.export: unknown or non-exportable experiment " ^ id)
