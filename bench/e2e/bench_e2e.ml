(* The repository benchmark (README.md next to this file).

     bench_e2e.exe run --workload W [--seed N] [--seconds T] [--trace 0|1]
     bench_e2e.exe all [--reps N] [--seed S] [--out FILE]
     bench_e2e.exe smoke --benchmark BENCHMARK.json

   [run] is one workload as the benchmark contract runs it: a human
   table, then one JSON result line, last on standard output.  Every
   command exits non-zero when a correctness check fails.  [episode] is
   the child each command re-executes this program as. *)

let usage =
  "bench_e2e.exe (run --workload W [--seed N] [--seconds T] [--trace 0|1] | all [--reps N] [--seed \
   S] [--out FILE] | smoke --benchmark FILE) [--size full|tiny]"

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 38.0 and trace = ref false in
  let reps = ref 5 and out = ref "bench_e2e.json" and benchmark = ref "BENCHMARK.json" in
  let size = ref "full" and domains = ref 0 and mode = ref "run" and trace_dir = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W workload name");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "T measurement budget of a run (default 38)");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun v -> trace := String.equal v "1"),
        " report per-layer metrics from a traced run" );
      ("--trace-dir", Arg.Set_string trace_dir, "D also write the traced run's record under D");
      ("--reps", Arg.Set_int reps, "N repetitions per workload (all; default 5)");
      ("--out", Arg.Set_string out, "FILE report path (all)");
      ("--benchmark", Arg.Set_string benchmark, "FILE the BENCHMARK.json to check (smoke)");
      ("--size", Arg.Set_string size, "full|tiny workload size (default full)");
      ("--domains", Arg.Set_int domains, "K engine domains (episode)");
      ("--mode", Arg.Set_string mode, "setup|run|trace (episode)");
    ]
  in
  let command = if Array.length Sys.argv >= 2 then Sys.argv.(1) else "" in
  (try
     Arg.parse_argv ~current:(ref 1) Sys.argv specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  let size =
    match Workload.size_of_string !size with
    | Some s -> s
    | None ->
      prerr_endline ("unknown size " ^ !size);
      exit 2
  in
  let find_workload () =
    match Workload.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S; one of: %s\n" !workload
        (String.concat " " (List.map (fun w -> w.Workload.name) Workload.all));
      exit 2
  in
  match command with
  | "episode" -> (
    let w = { (find_workload ()) with Workload.domains = !domains } in
    match Episode.mode_of_string !mode with
    | Some mode -> Episode.print stdout (Episode.run w ~size ~seed:!seed ~mode)
    | None -> exit 2)
  | "run" -> (
    let w = find_workload () in
    match Driver.run w ~size ~seed:!seed ~seconds:!seconds ~trace:!trace with
    | r ->
      Driver.print_table r;
      if !trace_dir <> "" then
        Driver.write_trace r
          (Filename.concat !trace_dir
             (Printf.sprintf "trace-%s-seed%d.json" w.Workload.name !seed));
      print_endline (Driver.result_line r ~trace:!trace)
    | exception Failure msg ->
      prerr_endline ("bench_e2e: " ^ msg);
      print_endline "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}";
      exit 1)
  | "all" -> Suite.all ~reps:!reps ~seed:!seed ~size ~out:!out
  | "smoke" -> Suite.smoke ~benchmark:!benchmark
  | _ ->
    prerr_endline usage;
    exit 2
