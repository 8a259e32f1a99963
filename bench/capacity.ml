(* Capacity macro-benchmark harness: one large Experiments.Capacity run
   plus the host-side measurements the simulator itself cannot take —
   wall-clock throughput (engine events per second), peak RSS (VmHWM from
   /proc/self/status), and GC totals.

   Defaults reproduce the headline scenario: 100 000 servers, an expected
   2 000 000 queries.  Override with

     TERRADIR_CAP_SERVERS     deployment size         (default 100000)
     TERRADIR_CAP_QUERIES     expected query count    (default 2000000)
     TERRADIR_CAP_SEED        simulation seed         (default 42)
     TERRADIR_CAP_OUT         report path             (default BENCH_results.json)
     TERRADIR_CAP_GC_OUT      Gc.stat summary path    (default: not written)
     TERRADIR_CAP_SPACE_OVERHEAD  major-heap pacing   (default 40)
     TERRADIR_ENGINE_DOMAINS  engine domains          (default 1)

   The report is schema v2 (see EXPERIMENTS.md): the simulation fields are
   deterministic per (servers, queries, seed) — and byte-identical for any
   engine-domain count; wall_s / events_per_sec / peak_rss_kb / gc are
   measurements of this process. *)

module E = Terradir_experiments

let getenv_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)

let servers = getenv_int "TERRADIR_CAP_SERVERS" E.Capacity.reference_servers

let queries = getenv_int "TERRADIR_CAP_QUERIES" E.Capacity.reference_queries

let seed = getenv_int "TERRADIR_CAP_SEED" 42

let out_file =
  match Sys.getenv_opt "TERRADIR_CAP_OUT" with Some f -> f | None -> "BENCH_results.json"

(* Major-heap pacing.  With the pooled/flat hot path, what allocation
   remains is short-lived merge results and closures; under the default
   space_overhead (120) the major heap balloons with floating garbage —
   measured top_heap is ~50× the end-of-run live set, i.e. peak RSS is
   mostly GC slack.  Pinning the overhead low keeps the heap near the
   live set, and the smaller working set is also measurably faster here
   (cache residency beats the extra collection work).  Override with
   TERRADIR_CAP_SPACE_OVERHEAD. *)
let () =
  let overhead = getenv_int "TERRADIR_CAP_SPACE_OVERHEAD" 40 in
  Gc.set { (Gc.get ()) with Gc.space_overhead = overhead }

(* Linux-specific; [None] elsewhere (the report then says "null" — 0 would
   read as a real measurement to the regression gate). *)
let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception _ -> None
  | body ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = "VmHWM" ->
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          let digits =
            match String.index_opt rest ' ' with
            | Some j -> String.sub rest 0 j
            | None -> rest
          in
          int_of_string_opt digits
        | _ -> None)
      (String.split_on_char '\n' body)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let phase_json (pg : E.Capacity.phase_gc) =
  Printf.sprintf
    "      { \"phase\": \"%s\", \"events\": %d, \"minor_words\": %s, \"promoted_words\": %s, \
     \"major_words\": %s, \"minor_collections\": %d, \"major_collections\": %d, \
     \"minor_words_per_event\": %s }"
    pg.E.Capacity.pg_phase pg.E.Capacity.pg_events
    (json_float pg.E.Capacity.pg_minor_words)
    (json_float pg.E.Capacity.pg_promoted_words)
    (json_float pg.E.Capacity.pg_major_words)
    pg.E.Capacity.pg_minor_collections pg.E.Capacity.pg_major_collections
    (json_float
       (if pg.E.Capacity.pg_events > 0 then
          pg.E.Capacity.pg_minor_words /. float_of_int pg.E.Capacity.pg_events
        else 0.0))

let write_report (r : E.Capacity.result) ~wall_s ~events_per_sec ~rss_kb ~(gc : Gc.stat) =
  let phases = r.E.Capacity.phases in
  (* The headline words-per-event numbers are steady-state only: warmup
     allocation (bootstrap churn, stores growing to size) is real but
     amortized, and gating on it would hide hot-path regressions behind
     setup noise.  The per-phase array keeps both visible. *)
  let steady =
    List.find_opt (fun p -> p.E.Capacity.pg_phase = "steady_state") phases
  in
  let per_event f =
    match steady with
    | Some p when p.E.Capacity.pg_events > 0 -> f p /. float_of_int p.E.Capacity.pg_events
    | Some _ | None -> 0.0
  in
  let oc = open_out out_file in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 2,\n\
    \  \"seed\": %d,\n\
    \  \"capacity\": {\n\
    \    \"servers\": %d,\n\
    \    \"engine_domains\": %d,\n\
    \    \"nodes\": %d,\n\
    \    \"rate_qps\": %s,\n\
    \    \"sim_duration_s\": %s,\n\
    \    \"events_executed\": %d,\n\
    \    \"injected\": %d,\n\
    \    \"resolved\": %d,\n\
    \    \"dropped\": %d,\n\
    \    \"drop_fraction\": %s,\n\
    \    \"mean_hops\": %s,\n\
    \    \"mean_latency_s\": %s,\n\
    \    \"replicas_created\": %d,\n\
    \    \"wall_s\": %s,\n\
    \    \"events_per_sec\": %s,\n\
    \    \"peak_rss_kb\": %s,\n\
    \    \"minor_words_per_event\": %s,\n\
    \    \"promoted_words_per_event\": %s,\n\
    \    \"gc\": { \"minor_words\": %s, \"major_words\": %s, \"minor_collections\": %d, \"major_collections\": %d, \"compactions\": %d, \"top_heap_words\": %d },\n\
    \    \"gc_phases\": [\n%s\n    ]\n\
    \  }\n\
     }\n"
    seed r.E.Capacity.servers r.E.Capacity.domains r.E.Capacity.nodes
    (json_float r.E.Capacity.rate)
    (json_float r.E.Capacity.sim_duration)
    r.E.Capacity.events r.E.Capacity.injected r.E.Capacity.resolved r.E.Capacity.dropped
    (json_float r.E.Capacity.drop_fraction)
    (json_float r.E.Capacity.mean_hops)
    (json_float r.E.Capacity.mean_latency)
    r.E.Capacity.replicas_created (json_float wall_s) (json_float events_per_sec)
    (match rss_kb with Some kb -> string_of_int kb | None -> "null")
    (json_float (per_event (fun p -> p.E.Capacity.pg_minor_words)))
    (json_float (per_event (fun p -> p.E.Capacity.pg_promoted_words)))
    (json_float gc.Gc.minor_words) (json_float gc.Gc.major_words) gc.Gc.minor_collections
    gc.Gc.major_collections gc.Gc.compactions gc.Gc.top_heap_words
    (String.concat ",\n" (List.map phase_json phases));
  close_out oc;
  Printf.printf "Report written to %s\n" out_file

(* Full [Gc.stat] dump to TERRADIR_CAP_GC_OUT (CI uploads it as an
   artifact — the long-form companion to the report's summary object). *)
let write_gc_summary (phases : E.Capacity.phase_gc list) =
  match Sys.getenv_opt "TERRADIR_CAP_GC_OUT" with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let saved = Unix.dup Unix.stdout in
    flush stdout;
    Unix.dup2 (Unix.descr_of_out_channel oc) Unix.stdout;
    Printf.printf "== Gc.stat at end of capacity run ==\n";
    Gc.print_stat stdout;
    Printf.printf "\n== per-phase deltas ==\n";
    List.iter
      (fun p ->
        Printf.printf
          "%-12s events=%d minor_words=%.0f promoted_words=%.0f major_words=%.0f \
           minor_collections=%d major_collections=%d\n"
          p.E.Capacity.pg_phase p.E.Capacity.pg_events p.E.Capacity.pg_minor_words
          p.E.Capacity.pg_promoted_words p.E.Capacity.pg_major_words
          p.E.Capacity.pg_minor_collections p.E.Capacity.pg_major_collections)
      phases;
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved;
    close_out oc;
    Printf.printf "GC summary written to %s\n" path

let () =
  Printf.printf "TerraDir capacity benchmark: %d servers, ~%d queries, seed %d\n%!" servers
    queries seed;
  let t0 = Unix.gettimeofday () in
  let r = E.Capacity.run ~servers ~queries ~seed () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let gc = Gc.quick_stat () in
  let rss_kb = peak_rss_kb () in
  let events_per_sec = if wall_s > 0.0 then float_of_int r.E.Capacity.events /. wall_s else 0.0 in
  List.iter Terradir_util.Tablefmt.print_table (E.Capacity.tables r);
  Printf.printf "engine domains: %d\n" r.E.Capacity.domains;
  Printf.printf "wall: %.1fs   events/sec: %.0f   peak RSS: %s\n" wall_s events_per_sec
    (match rss_kb with Some kb -> Printf.sprintf "%d kB" kb | None -> "unavailable");
  List.iter
    (fun p ->
      Printf.printf "gc[%s]: %.1f minor words/event (%d events, %d minor collections)\n"
        p.E.Capacity.pg_phase
        (if p.E.Capacity.pg_events > 0 then
           p.E.Capacity.pg_minor_words /. float_of_int p.E.Capacity.pg_events
         else 0.0)
        p.E.Capacity.pg_events p.E.Capacity.pg_minor_collections)
    r.E.Capacity.phases;
  flush stdout;
  write_report r ~wall_s ~events_per_sec ~rss_kb ~gc;
  write_gc_summary r.E.Capacity.phases
