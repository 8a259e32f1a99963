(* SIGPROF self-sampler: where does a simulation spend its CPU time?
   A per-store heap breakdown: what does one server's state cost?  And
   the collector's share of the run, phase by phase.

     prof_main.exe experiment ID [--scale S] [--duration D] [--seed N] [--hz H] [--top K]
     prof_main.exe scenario [--servers N] [--levels L] [--rate R] [--duration D]
                            [--seed N] [--hz H] [--top K]
     prof_main.exe mem [--servers N] [--duration D] [--seed N]
     prof_main.exe gc [--servers N] [--duration D] [--seed N]

   [experiment] runs a registry entry (fig3 ... hetero, as
   `terradir_sim list` names them); [scenario] runs a uniform-lookup
   stream over a balanced binary namespace, the shape of the benchmark's
   uniform workload.  Both run on one domain (one experiment job, one
   engine domain), so every sample interrupts the simulation itself.

   An [ITIMER_PROF] timer raises SIGPROF every 1/H seconds of process CPU
   time; the handler records the OCaml call stack ([Printexc.get_callstack])
   and the run ends with two frame tables: self (the innermost frame) and
   inclusive (every frame on the stack, counted once per sample).

   OCaml 5 runs signal handlers only at poll points — allocations,
   function entries and loop back-edges — so a sample lands at the next
   poll point after the timer fires, not at the instruction it
   interrupted.  Self time of a tight allocation-free loop shows up on
   that loop's own frame, but time in C (the GC, blits, hashing
   primitives) is charged to the OCaml frame that called it.  Inclusive
   numbers do not suffer from this and are the ones to trust for "how much
   of the run sits under X".

   [mem] samples nothing.  It builds the benchmark's uniform deployment
   at N servers (balanced binary namespace of log2(8N) levels,
   [Round_robin] placement, [cache_slots] = 2·log2 N − 2, [r_map] =
   log2 N − 2, deployment seed 42), runs D simulated seconds of uniform
   lookups at the benchmark's analytic rate (stream seed N), and prints,
   after set-up and after the run, live heap MB ([Gc.stat] after a full
   major) and bytes per server for each [Server.t] field.  Rows come from
   [Obj.reachable_words] over a growing set of roots — the shared tree,
   config and observability sink first, then each field of every server
   in turn — so a block reachable from several fields counts once, in the
   first row that reaches it, and the rows sum to the total, which is the
   benchmark's [mem.bytes_per_server].  Below the total, [names
   (process-wide)] is what building the tree added to the live heap
   besides the tree itself (the intern table, which no root reaches),
   and [other live] is the rest of the live heap (engine, cluster
   arrays, metrics), so total, names and other live sum to the live
   heap.  [Obj.reachable_words] needs memory of its own in proportion to
   the heap it walks: at 10k servers this command peaks at about 370 MB
   RSS (VmHWM), where the benchmark's run of the same deployment peaks at
   about 230 MB ([peak_rss_mb], 2-core Intel Xeon container).  Never
   call it inside a run whose RSS or time is measured.  A message
   waiting in a server queue holds its event thunks, which close over
   the whole cluster: the queue row would then count the cluster, so the
   breakdown is taken after the run has drained.

   [gc] samples nothing either.  It builds the same uniform deployment
   and run as [mem] and reads the runtime's own event ring (the
   [runtime_events] library of OCaml 5.1): wall time inside each GC
   phase — [minor], [minor_remembered_set] (scanning major-to-minor
   pointers), [major_slice], [major_mark] and [major_sweep] — for set-up
   and for the run.  Phases nest ([minor_remembered_set] inside [minor],
   the mark and sweep work inside major slices), so the rows do not add
   up.  An engine observer polls the ring every few thousand events, so
   it never overflows; [lost events] says if it did.  The ring is a file
   the runtime creates in the working directory and deletes at exit.
   Tracing costs time of its own: never use it inside a measured run. *)

module Registry = Terradir_experiments.Registry
module Runner = Terradir_experiments.Runner
open Terradir

let usage =
  "prof_main.exe (experiment ID [--scale S] [--duration D] | scenario [--servers N] [--levels L] \
   [--rate R] [--duration D]) [--seed N] [--hz H] [--top K]\n\
   prof_main.exe (mem | gc) [--servers N] [--duration D] [--seed N]"

let max_frames = 256

(* Frame name -> samples, for the innermost frame and for every frame. *)
let self_counts : (string, int) Hashtbl.t = Hashtbl.create 256

let incl_counts : (string, int) Hashtbl.t = Hashtbl.create 1024

let samples = ref 0

let bump table key = Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key))

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some name -> name
  | None -> (
    match Printexc.Slot.location slot with
    | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
    | None -> "?")

(* The handler's own frames sit on top of the interrupted stack; they are
   recognised by this module's name. *)
let own_frame name =
  let me = "Dune__exe__Prof_main" in
  String.length name >= String.length me && String.equal (String.sub name 0 (String.length me)) me

let on_sample _signal =
  let stack = Printexc.get_callstack max_frames in
  let frames =
    match Printexc.backtrace_slots stack with
    | None -> []
    | Some slots -> List.filter (fun n -> not (own_frame n)) (List.map frame_name (Array.to_list slots))
  in
  match frames with
  | [] -> ()
  | innermost :: _ ->
    incr samples;
    bump self_counts innermost;
    List.iter (bump incl_counts) (List.sort_uniq String.compare frames)

let host_wall () =
  (* lint: wall-clock the profiler prints its own host wall time next to the samples; it never reaches simulation state *)
  Unix.gettimeofday ()

let with_sampler ~hz f =
  let period = 1.0 /. float_of_int hz in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sample);
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = period; it_value = period });
  let t0 = host_wall () in
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigprof Sys.Signal_default);
  host_wall () -. t0

let print_table ~title ~top table =
  let rows =
    List.sort
      (fun (a, x) (b, y) -> match Int.compare y x with 0 -> String.compare a b | c -> c)
      (Hashtbl.fold (fun name n acc -> (name, n) :: acc) table [])
  in
  Printf.printf "\n%-8s %6s  %s\n" "samples" title "frame";
  List.iteri
    (fun i (name, n) ->
      if i < top then
        Printf.printf "%8d %5.1f%%  %s\n" n (100.0 *. float_of_int n /. float_of_int (max 1 !samples)) name)
    rows

let run_scenario ~servers ~levels ~rate ~duration ~seed =
  let tree = Terradir_namespace.Build.balanced ~arity:2 ~levels in
  let config = { Config.default with Config.num_servers = servers; seed; engine_domains = 1 } in
  let cluster = Cluster.create ~config ~tree () in
  Terradir_workload.Scenario.run cluster
    ~phases:(Terradir_workload.Stream.unif ~rate ~duration)
    ~seed:(seed + 1);
  Printf.printf "engine events executed: %d\n"
    (Terradir_sim.Engine.events_executed cluster.Cluster.engine)

(* ---- mem: per-store heap breakdown ---- *)

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

(* Per-server rows: name and the field's value.  Scalar fields, the
   records themselves and boxed floats land in the last row. *)
let server_fields : (string * (Server.t -> Obj.t)) list =
  [
    ("hosted", fun s -> Obj.repr s.Server.hosted);
    ("neighbor_maps", fun s -> Obj.repr s.Server.neighbor_maps);
    ("rng", fun s -> Obj.repr s.Server.rng);
    ("cache", fun s -> Obj.repr s.Server.cache);
    ("digests", fun s -> Obj.repr s.Server.digests);
    ("load", fun s -> Obj.repr s.Server.load);
    ("ranking", fun s -> Obj.repr s.Server.ranking);
    ("known_loads", fun s -> Obj.repr s.Server.known_loads);
    ("queue, ctrl_queue", fun s -> Obj.repr (s.Server.queue, s.Server.ctrl_queue));
  ]

(* Words reachable from [roots], without the array that holds them. *)
let reachable roots = Obj.reachable_words (Obj.repr (Array.of_list roots)) - (List.length roots + 1)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let print_breakdown (cluster : Cluster.t) ~names ~label =
  let live = live_words () in
  let live_mb = float_of_int (live * (Sys.word_size / 8)) /. 1e6 in
  let servers = Array.to_list cluster.Cluster.servers in
  let n = List.length servers in
  let per_server words = float_of_int (words * (Sys.word_size / 8)) /. float_of_int n in
  let s0 = List.hd servers in
  let shared =
    [
      ("tree (shared)", [ Obj.repr cluster.Cluster.tree ]);
      ("config, obs (shared)", [ Obj.repr s0.Server.config; Obj.repr s0.Server.obs ]);
    ]
  in
  let fields = List.map (fun (name, get) -> (name, List.map get servers)) server_fields in
  let rows = shared @ fields @ [ ("records, scalars", List.map Obj.repr servers) ] in
  Printf.printf "\n== %s: live heap %.1f MB, %d servers ==\n%-24s %10s\n" label live_mb n "store"
    "B/server";
  let _, total =
    List.fold_left
      (fun (roots, before) (name, more) ->
        let roots = more @ roots in
        let words = reachable roots in
        Printf.printf "%-24s %10.1f\n" name (per_server (words - before));
        (roots, words))
      ([], 0) rows
  in
  Printf.printf "%-24s %10.1f\n" "total" (per_server total);
  Printf.printf "%-24s %10.1f\n" "names (process-wide)" (per_server names);
  Printf.printf "%-24s %10.1f\n" "other live" (per_server (live - total - names));
  Printf.printf "%-24s %10.1f\n" "live heap" (per_server live)

(* The benchmark's namespace at [servers]. *)
let uniform_tree ~servers =
  Terradir_namespace.Build.balanced ~arity:2 ~levels:(max 3 (log2i (8 * servers)))

(* The benchmark's uniform deployment config over [tree], and its
   analytic lookup rate. *)
let uniform_deployment ~servers tree =
  let open Terradir_namespace in
  let log2s = log2i servers in
  let config =
    {
      Config.default with
      Config.num_servers = servers;
      seed = 42;
      engine_domains = 1;
      placement = Config.Round_robin;
      cache_slots = max 4 ((2 * log2s) - 2);
      r_map = max 2 (log2s - 2);
    }
  in
  let mean_depth =
    float_of_int (Tree.fold tree ~init:0 ~f:(fun acc v -> acc + Tree.depth tree v))
    /. float_of_int (Tree.size tree)
  in
  let rate =
    0.5 *. float_of_int servers /. (config.Config.service_mean *. ((2.0 *. mean_depth) +. 1.0))
  in
  (config, rate)

let run_uniform cluster ~rate ~duration ~seed =
  let open Terradir_workload in
  let d = Scenario.start cluster ~phases:(Stream.unif ~rate ~duration) ~seed in
  Cluster.run_until cluster (Scenario.stream_end d +. 2.0)

let run_mem ~servers ~duration ~seed =
  let before = live_words () in
  let tree = uniform_tree ~servers in
  let names = live_words () - before - reachable [ Obj.repr tree ] in
  let config, rate = uniform_deployment ~servers tree in
  let cluster = Cluster.create ~config ~tree () in
  print_breakdown cluster ~names ~label:"after set-up";
  run_uniform cluster ~rate ~duration ~seed;
  print_breakdown cluster ~names
    ~label:(Printf.sprintf "after %g s of uniform lookups at %.0f/s" duration rate)

(* ---- gc: per-phase collector time from runtime_events ---- *)

let gc_phases =
  Runtime_events.
    [
      (EV_MINOR, "minor");
      (EV_MINOR_REMEMBERED_SET, "minor_remembered_set");
      (EV_MAJOR_SLICE, "major_slice");
      (EV_MAJOR_MARK, "major_mark");
      (EV_MAJOR_SWEEP, "major_sweep");
    ]

(* Per phase: total ns, completed spans, and the open span's start. *)
type phase_acc = { mutable ns : int64; mutable spans : int; mutable opened : int64 }

let run_gc ~servers ~duration ~seed =
  let accs = List.map (fun (ph, name) -> (ph, name, { ns = 0L; spans = 0; opened = -1L })) gc_phases in
  let acc_of ph = List.find_map (fun (p, _, a) -> if p = ph then Some a else None) accs in
  let lost = ref 0 in
  let runtime_begin _domain ts ph =
    match acc_of ph with
    | Some a -> a.opened <- Runtime_events.Timestamp.to_int64 ts
    | None -> ()
  in
  let runtime_end _domain ts ph =
    match acc_of ph with
    | Some a when a.opened >= 0L ->
      a.ns <- Int64.add a.ns (Int64.sub (Runtime_events.Timestamp.to_int64 ts) a.opened);
      a.spans <- a.spans + 1;
      a.opened <- -1L
    | Some _ | None -> ()
  in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
      ~lost_events:(fun _domain n -> lost := !lost + n)
      ()
  in
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let poll () = ignore (Runtime_events.read_poll cursor callbacks None : int) in
  (* Totals of one stage, read off the accumulators and then zeroed. *)
  let take () =
    poll ();
    List.map
      (fun (_, name, a) ->
        let row = (name, Int64.to_float a.ns /. 1e9, a.spans) in
        a.ns <- 0L;
        a.spans <- 0;
        row)
      accs
  in
  let tree = uniform_tree ~servers in
  let config, rate = uniform_deployment ~servers tree in
  ignore (take ());
  let t0 = host_wall () in
  let cluster = Cluster.create ~config ~tree () in
  let setup_wall = host_wall () -. t0 in
  let setup = take () in
  Terradir_sim.Engine.add_observer cluster.Cluster.engine ~every:4096 poll;
  let t1 = host_wall () in
  run_uniform cluster ~rate ~duration ~seed;
  let run_wall = host_wall () -. t1 in
  let run = take () in
  Runtime_events.free_cursor cursor;
  Printf.printf "== GC phases (runtime_events): uniform deployment, %d servers, %g s at %.0f/s ==\n"
    servers duration rate;
  Printf.printf "%-22s %10s %8s %10s %8s\n" "phase" "set-up s" "spans" "run s" "spans";
  List.iter2
    (fun (name, s0, n0) (_, s1, n1) -> Printf.printf "%-22s %10.3f %8d %10.3f %8d\n" name s0 n0 s1 n1)
    setup run;
  Printf.printf "%-22s %10.3f %8s %10.3f\n" "wall" setup_wall "" run_wall;
  Printf.printf "engine events: %d; lost events: %d\n"
    (Terradir_sim.Engine.events_executed cluster.Cluster.engine)
    !lost

let () =
  let command = if Array.length Sys.argv >= 2 then Sys.argv.(1) else "" in
  let id = if Array.length Sys.argv >= 3 then Sys.argv.(2) else "" in
  let first = match command with "experiment" -> 3 | _ -> 2 in
  let scale = ref 0.002 and duration = ref 90.0 and seed = ref 42 and hz = ref 1000 and top = ref 30 in
  let uniform = command = "mem" || command = "gc" in
  let servers = ref (if uniform then 10_000 else 1024) in
  let levels = ref 13 and rate = ref 2000.0 in
  if uniform then duration := 9.0;
  let specs =
    [
      ("--scale", Arg.Set_float scale, "S experiment scale (default 0.002)");
      ("--duration", Arg.Set_float duration, "D simulated seconds (default 90; mem, gc 9)");
      ("--seed", Arg.Set_int seed, "N seed (default 42)");
      ("--hz", Arg.Set_int hz, "H samples per CPU second (default 1000)");
      ("--top", Arg.Set_int top, "K rows per table (default 30)");
      ("--servers", Arg.Set_int servers, "N scenario servers (default 1024; mem, gc 10000)");
      ("--levels", Arg.Set_int levels, "L scenario namespace levels (default 13)");
      ("--rate", Arg.Set_float rate, "R scenario queries per simulated second (default 2000)");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref (first - 1)) Sys.argv specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  if !hz <= 0 then (prerr_endline "--hz must be positive"; exit 2);
  Runner.set_jobs (Some 1);
  Runner.set_engine_domains (Some 1);
  if command = "mem" then begin
    run_mem ~servers:!servers ~duration:!duration ~seed:!seed;
    exit 0
  end;
  if command = "gc" then begin
    run_gc ~servers:!servers ~duration:!duration ~seed:!seed;
    exit 0
  end;
  let work, label =
    match command with
    | "experiment" -> (
      match Registry.find id with
      | Some e ->
        ( (fun () -> Registry.print e ~scale:!scale ~duration:!duration ~seed:!seed ()),
          Printf.sprintf "experiment %s, scale %g, %g s, seed %d" id !scale !duration !seed )
      | None ->
        Printf.eprintf "unknown experiment %S; one of: %s\n" id (String.concat " " (Registry.ids ()));
        exit 2)
    | "scenario" ->
      ( (fun () ->
          run_scenario ~servers:!servers ~levels:!levels ~rate:!rate ~duration:!duration ~seed:!seed),
        Printf.sprintf "scenario: %d servers, balanced:%d, %g q/s, %g s, seed %d" !servers !levels
          !rate !duration !seed )
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let wall = with_sampler ~hz:!hz work in
  Printf.printf "\n== SIGPROF profile: %s ==\n" label;
  Printf.printf
    "%d samples at %d Hz of process CPU time, %.2f s wall.  Samples land at OCaml poll points\n\
     (allocations, function entries, loop back-edges), not at the interrupted instruction:\n\
     time in C is charged to its OCaml caller.  Inclusive counts are the reliable ones.\n"
    !samples !hz wall;
  print_table ~title:"self" ~top:!top self_counts;
  print_table ~title:"incl" ~top:!top incl_counts
