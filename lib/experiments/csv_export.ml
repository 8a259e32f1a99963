open Terradir_util

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
  Tablefmt.csv ~header:[ "metric"; "value" ]
    (counter_rows
    @ hist_rows "latency" metrics.M.latency_hist
    @ hist_rows "hops" metrics.M.hops_hist)

let export ~id ?scale ?duration ?seed ~dir () =
  match Registry.find id with
  | None -> invalid_arg ("Csv_export.export: unknown experiment " ^ id)
  | Some e ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.map
      (fun (t : Tablefmt.table) ->
        let path = Filename.concat dir (t.name ^ ".csv") in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Tablefmt.csv ~header:t.header t.rows));
        path)
      (e.Registry.tables ?scale ?duration ?seed ())
