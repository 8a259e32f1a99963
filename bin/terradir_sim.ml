(* terradir_sim: command-line driver for the TerraDir reproduction.

   Subcommands:
     list            enumerate the paper's experiments
     run <id>        regenerate one table/figure (at a chosen scale)
     all             regenerate everything
     custom          free-form simulation with explicit knobs
     chaos           run a canned chaos campaign, emit its resilience report
     trace           show the route a lookup would take right now *)

open Cmdliner
open Terradir
open Terradir_util
open Terradir_workload
module Experiments = Terradir_experiments
module Obs = Terradir_obs.Obs
module Obs_export = Terradir_obs.Export

let scale_arg =
  let doc =
    "Scale relative to the paper's 4096-server testbed (0 < scale <= 1). Default 1/16."
  in
  Arg.(value & opt float (1.0 /. 16.0) & info [ "scale" ] ~docv:"S" ~doc)

let seed_arg =
  let doc = "Deterministic simulation seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Domains to fan experiment cells over (default: TERRADIR_JOBS, else all \
     cores minus one).  Results are bit-identical for any value; 1 runs \
     sequentially in-process."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let apply_jobs jobs = Experiments.Runner.set_jobs jobs

let engine_domains_arg =
  let doc =
    "Domains INSIDE each simulation's event engine (default: \
     TERRADIR_ENGINE_DOMAINS, else 1).  Orthogonal to --jobs, which fans \
     independent runs out.  Every metric, CSV and trace is byte-identical \
     for any value; only wall-clock changes."
  in
  Arg.(value & opt (some int) None & info [ "engine-domains" ] ~docv:"K" ~doc)

let apply_engine_domains d = Experiments.Runner.set_engine_domains d

let audit_arg =
  let doc =
    "Run the invariant auditor alongside the simulation (see also \
     TERRADIR_AUDIT).  Violations are collected and reported at the end \
     instead of aborting the run."
  in
  Arg.(value & flag & info [ "audit" ] ~doc)

(* Must run before any cluster is created and before the runner spawns
   worker domains: [force_enable]/[set_mode] are plain refs that the
   workers read but never write. *)
let apply_audit audit =
  if audit then begin
    Invariant.force_enable ();
    Invariant.set_mode `Collect
  end

let report_audit audit =
  if audit then
    match Invariant.collected_reports () with
    | [] -> prerr_endline "audit: clean (no invariant violations)"
    | reports ->
      List.iter prerr_endline reports;
      Printf.eprintf "audit: %d run(s) reported violations\n" (List.length reports);
      exit 3

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun e -> Printf.printf "%-8s %s\n" e.Experiments.Registry.id e.Experiments.Registry.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the paper's experiments") Term.(const run $ const ())

(* ---- run ---- *)

let run_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id (see list)")
  in
  let csv_arg =
    let doc = "Write the tables as plot-ready CSV files to $(docv) instead of printing them." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)
  in
  let duration_arg =
    let doc = "Simulated seconds per run (experiment default if absent)." in
    Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"SEC" ~doc)
  in
  let run id scale seed csv duration jobs engine_domains audit =
    apply_jobs jobs;
    apply_engine_domains engine_domains;
    apply_audit audit;
    (match (Experiments.Registry.find id, csv) with
    | None, _ ->
      Printf.eprintf "unknown experiment %S; try: %s\n" id
        (String.concat " " (Experiments.Registry.ids ()));
      exit 1
    | Some _, Some dir ->
      List.iter print_endline (Experiments.Csv_export.export ~id ~scale ?duration ~seed ~dir ())
    | Some e, None -> Experiments.Registry.print e ~scale ?duration ~seed ());
    report_audit audit
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Regenerate one table/figure")
    Term.(
      const run $ id_arg $ scale_arg $ seed_arg $ csv_arg $ duration_arg $ jobs_arg
      $ engine_domains_arg $ audit_arg)

(* ---- all ---- *)

let all_cmd =
  let run scale seed jobs engine_domains audit =
    apply_jobs jobs;
    apply_engine_domains engine_domains;
    apply_audit audit;
    List.iter
      (fun e ->
        print_newline ();
        Experiments.Registry.print e ~scale ~seed ())
      Experiments.Registry.all;
    report_audit audit
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table and figure")
    Term.(const run $ scale_arg $ seed_arg $ jobs_arg $ engine_domains_arg $ audit_arg)

(* ---- custom ---- *)

let custom_cmd =
  let servers =
    Arg.(value & opt int 256 & info [ "servers" ] ~docv:"N" ~doc:"Number of servers")
  in
  let namespace =
    let doc = "Namespace: 'balanced:LEVELS' or 'coda:NODES'." in
    Arg.(value & opt string "balanced:11" & info [ "namespace" ] ~docv:"NS" ~doc)
  in
  let rate = Arg.(value & opt float 1000.0 & info [ "rate" ] ~docv:"Q/S" ~doc:"Global query rate") in
  let duration = Arg.(value & opt float 60.0 & info [ "duration" ] ~docv:"SEC" ~doc:"Run length") in
  let alpha =
    Arg.(value & opt (some float) None & info [ "zipf" ] ~docv:"ALPHA" ~doc:"Zipf order (uniform if absent)")
  in
  let shifts =
    Arg.(value & opt int 0 & info [ "shifts" ] ~docv:"K" ~doc:"Instant popularity re-rankings")
  in
  let system =
    let doc = "Feature set: B (base), BC (caching), BCR (full)." in
    Arg.(value & opt string "BCR" & info [ "system" ] ~docv:"SYS" ~doc)
  in
  let obs_level =
    let doc = "Observability level: off, counters, spans or full (see DESIGN §11)." in
    Arg.(value & opt string "off" & info [ "obs-level" ] ~docv:"LEVEL" ~doc)
  in
  let probe_every =
    let doc = "Per-server probe cadence, in executed engine events." in
    Arg.(value & opt int 2000 & info [ "probe-every" ] ~docv:"N" ~doc)
  in
  let trace =
    let doc =
      "Write a Chrome trace-event JSON file to $(docv) (open in Perfetto or \
       chrome://tracing).  Implies at least --obs-level spans."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let events_csv =
    let doc = "Write the raw flight-recorder event log as CSV to $(docv).  Implies at least --obs-level counters." in
    Arg.(value & opt (some string) None & info [ "events-csv" ] ~docv:"FILE" ~doc)
  in
  let probes_csv =
    let doc = "Write the per-server probe time series as CSV to $(docv).  Implies at least --obs-level counters." in
    Arg.(value & opt (some string) None & info [ "probes-csv" ] ~docv:"FILE" ~doc)
  in
  let run servers namespace rate duration alpha shifts system seed engine_domains audit obs_level
      probe_every trace events_csv probes_csv =
    apply_engine_domains engine_domains;
    apply_audit audit;
    let obs =
      let requested =
        match Obs.level_of_string obs_level with
        | Some l -> l
        | None -> failwith "obs-level must be off, counters, spans or full"
      in
      let rank = function Obs.Off -> 0 | Obs.Counters -> 1 | Obs.Spans -> 2 | Obs.Full -> 3 in
      (* Exporters need data: a trace needs spans, the CSVs need counters.
         Asking for a file quietly raises the level to what it requires. *)
      let need =
        if trace <> None then Obs.Spans
        else if events_csv <> None || probes_csv <> None then Obs.Counters
        else Obs.Off
      in
      let level = if rank requested >= rank need then requested else need in
      if level = Obs.Off then Obs.null else Obs.create ~probe_every ~level ()
    in
    let tree =
      match String.split_on_char ':' namespace with
      | [ "balanced"; levels ] -> Terradir_namespace.Build.balanced ~arity:2 ~levels:(int_of_string levels)
      | [ "coda"; nodes ] -> Terradir_namespace.Build.coda_like ~seed ~target:(int_of_string nodes) ()
      | _ -> failwith "namespace must be balanced:LEVELS or coda:NODES"
    in
    let features =
      match String.uppercase_ascii system with
      | "B" -> Config.base
      | "BC" -> Config.bc
      | "BCR" -> Config.bcr
      | "BCR-NODIGEST" -> { Config.bcr with Config.digests = false }
      | _ -> failwith "system must be B, BC, BCR or BCR-nodigest"
    in
    let config =
      Experiments.Runner.with_engine_config
        { Config.default with Config.num_servers = servers; features; seed }
    in
    let cluster = Cluster.create ~obs ~config ~tree () in
    let phases =
      match alpha with
      | None -> Stream.unif ~rate ~duration
      | Some alpha ->
        if shifts = 0 then
          [ { Stream.duration; rate; dist = Stream.Zipf { alpha; reshuffle = true } } ]
        else
          Stream.uzipf ~rate ~warmup:(duration /. 5.0) ~alpha
            ~shift_every:(duration *. 0.8 /. float_of_int shifts)
            ~shifts
    in
    Scenario.run cluster ~phases ~seed:(seed + 1);
    Printf.printf "namespace: %s\n" (Terradir_namespace.Build.describe tree);
    Tablefmt.print ~header:[ "metric"; "value" ]
      (List.map (fun (k, v) -> [ k; v ]) (Metrics.summary_rows (Cluster.metrics cluster)));
    Printf.printf "engine events executed: %d\n"
      (Terradir_sim.Engine.events_executed cluster.Cluster.engine);
    if Obs.counters_on obs then begin
      print_newline ();
      Tablefmt.print ~header:[ "observability"; "value" ]
        (List.map (fun (k, v) -> [ k; v ]) (Obs_export.summary_rows obs))
    end;
    let write file content =
      Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc content);
      Printf.printf "wrote %s\n" file
    in
    Option.iter (fun file -> write file (Obs_export.chrome_trace (Obs.recorder obs))) trace;
    Option.iter (fun file -> write file (Obs_export.events_csv (Obs.recorder obs))) events_csv;
    Option.iter (fun file -> write file (Obs_export.probes_csv (Obs.probes obs))) probes_csv;
    report_audit audit
  in
  Cmd.v
    (Cmd.info "custom" ~doc:"Run a custom simulation")
    Term.(
      const run $ servers $ namespace $ rate $ duration $ alpha $ shifts $ system $ seed_arg
      $ engine_domains_arg $ audit_arg $ obs_level $ probe_every $ trace $ events_csv
      $ probes_csv)

(* ---- chaos ---- *)

let chaos_cmd =
  let scenario =
    let doc = "Canned campaign to run (see --list)." in
    Arg.(value & opt string "partition-flash-crowd" & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the canned campaigns and exit.")
  in
  let servers =
    Arg.(value & opt int 128 & info [ "servers" ] ~docv:"N" ~doc:"Number of servers")
  in
  let rate =
    Arg.(value & opt float 500.0 & info [ "rate" ] ~docv:"Q/S" ~doc:"Base query rate")
  in
  let seeds =
    let doc =
      "Seed sweep width: run the campaign at seeds SEED .. SEED+N-1 (fanned over --jobs \
       domains) and report each.  Output files gain a .seedS infix when N > 1."
    in
    Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let out =
    let doc = "Write the resilience report JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let csv =
    let doc = "Write the per-window trajectory CSV to $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let run scenario list_flag servers rate seed seeds jobs engine_domains audit out csv =
    if list_flag then
      List.iter
        (fun c -> Printf.printf "%-24s %s\n" c.Terradir_chaos.Campaigns.name c.Terradir_chaos.Campaigns.title)
        Terradir_chaos.Campaigns.all
    else begin
      apply_jobs jobs;
      apply_engine_domains engine_domains;
      apply_audit audit;
      if seeds < 1 then failwith "--seeds must be >= 1";
      match Terradir_chaos.Campaigns.find scenario with
      | None ->
        Printf.eprintf "unknown campaign %S; try: %s\n" scenario
          (String.concat " "
             (List.map (fun c -> c.Terradir_chaos.Campaigns.name) Terradir_chaos.Campaigns.all));
        exit 1
      | Some campaign ->
        let config = Experiments.Runner.with_engine_config Config.default in
        let reports =
          Experiments.Runner.map
            (fun s -> Terradir_chaos.Campaigns.run_campaign ~config campaign ~servers ~rate ~seed:s)
            (List.init seeds (fun i -> seed + i))
        in
        let with_suffix s file =
          if seeds = 1 then file
          else
            let ext = Filename.extension file in
            Printf.sprintf "%s.seed%d%s" (Filename.remove_extension file) s ext
        in
        let write file content =
          Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc content);
          Printf.printf "wrote %s\n" file
        in
        List.iteri
          (fun i report ->
            let s = seed + i in
            if seeds > 1 then Printf.printf "\n===== seed %d =====\n" s;
            Tablefmt.print ~header:[ "resilience"; "value" ]
              (List.map (fun (k, v) -> [ k; v ]) (Terradir_chaos.Report.summary_rows report));
            Option.iter
              (fun file -> write (with_suffix s file) (Terradir_chaos.Report.to_json report))
              out;
            Option.iter
              (fun file -> write (with_suffix s file) (Terradir_chaos.Report.windows_csv report))
              csv)
          reports;
        report_audit audit
    end
  in
  Cmd.v
    (Cmd.info "chaos" ~doc:"Run a canned chaos campaign and emit its resilience report")
    Term.(
      const run $ scenario $ list_flag $ servers $ rate $ seed_arg $ seeds $ jobs_arg
      $ engine_domains_arg $ audit_arg $ out $ csv)

(* ---- trace ---- *)

let trace_cmd =
  let namespace =
    Arg.(value & opt string "balanced:6" & info [ "namespace" ] ~docv:"NS" ~doc:"balanced:LEVELS or coda:NODES")
  in
  let servers = Arg.(value & opt int 16 & info [ "servers" ] ~docv:"N" ~doc:"Number of servers") in
  let warm =
    Arg.(value & opt float 0.0 & info [ "warm" ] ~docv:"SEC" ~doc:"Warm with Zipf traffic for this long first")
  in
  let from_arg = Arg.(value & opt int 0 & info [ "from" ] ~docv:"SERVER" ~doc:"Source server") in
  let to_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc:"Destination name, e.g. /0/1/0")
  in
  let run namespace servers warm from_ to_ seed =
    let tree =
      match String.split_on_char ':' namespace with
      | [ "balanced"; levels ] ->
        Terradir_namespace.Build.balanced ~arity:2 ~levels:(int_of_string levels)
      | [ "coda"; nodes ] -> Terradir_namespace.Build.coda_like ~seed ~target:(int_of_string nodes) ()
      | _ -> failwith "namespace must be balanced:LEVELS or coda:NODES"
    in
    let config = { Config.default with Config.num_servers = servers; seed } in
    let cluster = Cluster.create ~config ~tree () in
    if warm > 0.0 then
      Scenario.run cluster
        ~phases:
          [
            {
              Stream.duration = warm;
              rate = 25.0 *. float_of_int servers;
              dist = Stream.Zipf { alpha = 1.1; reshuffle = true };
            };
          ]
        ~seed:(seed + 1);
    match Terradir_namespace.Tree.find_string tree to_ with
    | None ->
      Printf.eprintf "no such node: %s\n" to_;
      exit 1
    | Some dst -> print_string (Trace.to_string cluster (Trace.route cluster ~src:from_ ~dst))
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Trace the route a lookup would take right now (cf. paper Figs. 1-2)")
    Term.(const run $ namespace $ servers $ warm $ from_arg $ to_arg $ seed_arg)

let () =
  let doc = "TerraDir hierarchical routing with soft-state replicas (IPDPS 2004) - simulator" in
  let info = Cmd.info "terradir_sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; all_cmd; custom_cmd; chaos_cmd; trace_cmd ]))
