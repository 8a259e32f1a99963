(* Benchmark harness:

   1. Bechamel micro-benchmarks of the protocol's hot operations.
   2. Regeneration of every table and figure in the paper's evaluation
      (§4), at a configurable scale, fanned out over TERRADIR_JOBS domains.
   3. A machine-readable report, written to TERRADIR_BENCH_OUT (default
      BENCH_results.json; schema documented in EXPERIMENTS.md).

   The default scale is 1/32 of the paper's 4096-server testbed so the
   whole suite completes in minutes; set TERRADIR_BENCH_SCALE (e.g. 0.125)
   to run closer to paper scale, and TERRADIR_BENCH_SEED to vary runs.
   Per-server utilization — the quantity behind every result — is
   preserved by the scaling (see Experiments.Common). *)

module E = Terradir_experiments

let getenv_float name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> ( match float_of_string_opt v with Some f -> f | None -> default)

let getenv_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)

let scale = getenv_float "TERRADIR_BENCH_SCALE" (1.0 /. 32.0)

let seed = getenv_int "TERRADIR_BENCH_SEED" 42

let out_file =
  match Sys.getenv_opt "TERRADIR_BENCH_OUT" with
  | Some f -> f
  | None -> "BENCH_results.json"

(* Durations in simulated seconds: compressed relative to the paper's
   250 s (Figs. 3–6) and 10000 s (Fig. 8) horizons so the whole suite
   finishes in minutes — each series still contains the warmup, multiple
   popularity shifts, and (for Fig. 8) an unambiguous decay tail.  Pass a
   larger TERRADIR_BENCH_SCALE and edit here for paper-scale runs. *)
let durations =
  [
    ("fig3", 180.0);
    ("fig4", 180.0);
    ("fig5", 100.0);
    ("fig6", 180.0);
    ("fig7", 120.0);
    ("fig8", 480.0);
    ("fig9", 80.0);
    ("rfact", 120.0);
    ("ablations", 100.0);
    ("hetero", 110.0);
  ]

type figure_report = {
  id : string;
  wall_s : float;
  events : int;
  minor_words : int;  (** minor-heap words allocated across the figure's cells *)
  promoted_words : int;
}

(* One representative full-system run whose latency/hop distributions go
   into the report (schema v2 "histograms"): fig3's uniform stream,
   compressed.  The histograms come from [Metrics] itself (log-bucketed,
   RNG-free) so no observability level needs to be on. *)
let histogram_summaries () =
  let setup = E.Common.make ~scale ~seed E.Common.NS in
  let phases =
    E.Common.unif_stream setup ~paper_rate:E.Common.paper_lambda_fig3 ~duration:30.0
  in
  let cluster = E.Runner.run_phases setup phases in
  let m = Terradir.Cluster.metrics cluster in
  [
    ("latency_s", Terradir_obs.Hist.summary_fields m.Terradir.Metrics.latency_hist);
    ("hops", Terradir_obs.Hist.summary_fields m.Terradir.Metrics.hops_hist);
  ]

(* Hand-written JSON (the image carries no JSON library); every string we
   emit is a known identifier, so escaping only needs the basics. *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let write_report ~jobs ~total_wall ~micro ~figures ~histograms =
  let micro_json =
    micro
    |> List.map (fun (name, ns) ->
           Printf.sprintf "    { \"name\": %s, \"ns_per_run\": %s }" (json_string name)
             (json_float ns))
    |> String.concat ",\n"
  in
  let figures_json =
    figures
    |> List.map (fun f ->
           let events_per_sec =
             if f.wall_s > 0.0 then float_of_int f.events /. f.wall_s else 0.0
           in
           let per_event w =
             if f.events > 0 then float_of_int w /. float_of_int f.events else 0.0
           in
           Printf.sprintf
             "    { \"id\": %s, \"wall_s\": %s, \"events_executed\": %d, \"events_per_sec\": \
              %s, \"minor_words_per_event\": %s, \"promoted_words_per_event\": %s }"
             (json_string f.id) (json_float f.wall_s) f.events (json_float events_per_sec)
             (json_float (per_event f.minor_words))
             (json_float (per_event f.promoted_words)))
    |> String.concat ",\n"
  in
  let histograms_json =
    histograms
    |> List.map (fun (name, fields) ->
           Printf.sprintf "    { \"name\": %s, %s }" (json_string name)
             (String.concat ", "
                (List.map
                   (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (json_float v))
                   fields)))
    |> String.concat ",\n"
  in
  let oc = open_out out_file in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 2,\n\
    \  \"scale\": %s,\n\
    \  \"seed\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"total_wall_s\": %s,\n\
    \  \"micro_ns_per_run\": [\n%s\n  ],\n\
    \  \"histograms\": [\n%s\n  ],\n\
    \  \"figures\": [\n%s\n  ]\n\
     }\n"
    (json_float scale) seed jobs (json_float total_wall) micro_json histograms_json figures_json;
  close_out oc;
  Printf.printf "Report written to %s\n" out_file

let () =
  let t0 = Unix.gettimeofday () in
  let jobs = E.Runner.jobs () in
  Printf.printf
    "TerraDir soft-state replication benchmark suite (scale=%.4f, seed=%d, jobs=%d)\n\n%!"
    scale seed jobs;
  let micro = Micro.run () in
  print_endline "\n== representative run (latency/hop histograms) ==";
  let histograms = histogram_summaries () in
  List.iter
    (fun (name, fields) ->
      Printf.printf "  %-10s %s\n%!" name
        (String.concat "  " (List.map (fun (k, v) -> Printf.sprintf "%s=%.4g" k v) fields)))
    histograms;
  let figures =
    List.map
      (fun entry ->
        let id = entry.E.Registry.id in
        let duration = List.assoc_opt id durations in
        let events_before = E.Runner.events_executed () in
        let minor_before = E.Runner.minor_words_allocated () in
        let promoted_before = E.Runner.promoted_words_allocated () in
        let start = Unix.gettimeofday () in
        print_newline ();
        E.Registry.print entry ~scale ?duration ~seed ();
        let wall_s = Unix.gettimeofday () -. start in
        let events = E.Runner.events_executed () - events_before in
        (* Figures run sequentially, so the counter deltas attribute
           cleanly even though each figure fans its cells out in
           parallel (workers fold their regions in before the figure
           returns). *)
        let minor_words = E.Runner.minor_words_allocated () - minor_before in
        let promoted_words = E.Runner.promoted_words_allocated () - promoted_before in
        Printf.printf "[%s completed in %.1fs wall, %d engine events, %.1f minor words/event]\n%!"
          id wall_s events
          (if events > 0 then float_of_int minor_words /. float_of_int events else 0.0);
        { id; wall_s; events; minor_words; promoted_words })
      E.Registry.all
  in
  let total_wall = Unix.gettimeofday () -. t0 in
  Printf.printf "\nTotal wall time: %.1fs\n" total_wall;
  write_report ~jobs ~total_wall ~micro ~figures ~histograms
