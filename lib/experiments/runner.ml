open Terradir
open Terradir_util
open Terradir_workload

(* ------------------------------------------------------------------ *)
(* Parallel fan-out                                                    *)
(* ------------------------------------------------------------------ *)

(* Set from the main domain before any fan-out (tests pin it); reads from
   worker closures never happen — [jobs] is resolved by the dispatching
   domain only. *)
let forced_jobs = ref None (* race: bare-shared-mutable single-writer: pinned by the dispatching domain before fan-out, workers only read *)

let set_jobs j = forced_jobs := j

let jobs () =
  match !forced_jobs with
  | Some j -> max 1 j
  | None -> (
    match Sys.getenv_opt "TERRADIR_JOBS" with
    | Some v -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> j
      | Some _ | None -> Pool.recommended_jobs ())
    | None -> Pool.recommended_jobs ())

let with_jobs j f =
  let saved = !forced_jobs in
  forced_jobs := Some j;
  Fun.protect ~finally:(fun () -> forced_jobs := saved) f

let map f cells = Pool.map ~domains:(jobs ()) f cells

(* ------------------------------------------------------------------ *)
(* Engine parallelism                                                  *)
(* ------------------------------------------------------------------ *)

(* Domains INSIDE each simulation's event engine — orthogonal to [jobs],
   which fans independent cells out.  Same discipline: pinned by the main
   domain, read when a cluster is built.  The engine's determinism
   contract makes this knob observable-output-neutral. *)
let forced_engine_domains = ref None (* race: bare-shared-mutable single-writer: pinned by the dispatching domain before fan-out, workers only read *)

let set_engine_domains d = forced_engine_domains := d

let engine_domains () =
  match !forced_engine_domains with
  | Some _ as d -> d
  | None -> (
    match Sys.getenv_opt "TERRADIR_ENGINE_DOMAINS" with
    | Some v -> ( match int_of_string_opt v with Some d when d >= 1 -> Some d | _ -> None)
    | None -> None)

(* Apply the pinned/environment override, if any, to a cluster config. *)
let with_engine_config config =
  match engine_domains () with
  | None -> config
  | Some d ->
    if d = config.Config.engine_domains then config
    else { config with Config.engine_domains = max 1 d }

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* Like [forced_jobs]: written by the main domain before any fan-out.
   Worker closures read it when they build their cluster — each cell gets
   its OWN fresh sink (sinks are single-cluster mutable state and must
   never be shared across domains). *)
let forced_obs : (Terradir_obs.Obs.level * int) option ref = ref None (* race: bare-shared-mutable single-writer: pinned by the dispatching domain before fan-out, workers only read *)

let with_obs ~level ?(probe_every = 2000) f =
  let saved = !forced_obs in
  forced_obs := Some (level, probe_every);
  Fun.protect ~finally:(fun () -> forced_obs := saved) f

let fresh_obs () =
  match !forced_obs with
  | None -> None
  | Some (level, probe_every) -> Some (Terradir_obs.Obs.create ~probe_every ~level ())

(* ------------------------------------------------------------------ *)
(* Simulation-cost accounting                                          *)
(* ------------------------------------------------------------------ *)

(* Engine events executed across every run driven through [run_phases],
   summed atomically so concurrent domains account correctly.  The sum is
   order-independent, hence identical for any jobs count. *)
let events = Atomic.make 0

let events_executed () = Atomic.get events

let record_events cluster =
  ignore
    (Atomic.fetch_and_add events
       (Terradir_sim.Engine.events_executed cluster.Cluster.engine))

(* GC-pressure accounting, the memory twin of the event counter: words
   allocated while instrumented regions ran, summed atomically.  The
   before/after [Gc.quick_stat] delta MUST be taken from inside the
   executing domain — in OCaml 5 the allocation counters cover the
   calling domain (plus already-terminated ones), so a coordinator
   reading around a [Pool.map] fan-out would see none of its workers'
   allocation.  Engine lanes spawned and joined within a region fold
   their counters into that region's delta at join time. *)
let minor_words = Atomic.make 0

let promoted_words = Atomic.make 0

let minor_words_allocated () = Atomic.get minor_words

let promoted_words_allocated () = Atomic.get promoted_words

let add_alloc ~minor ~promoted =
  ignore (Atomic.fetch_and_add minor_words minor);
  ignore (Atomic.fetch_and_add promoted_words promoted)

let record_alloc f =
  let before = Gc.quick_stat () in
  Fun.protect f ~finally:(fun () ->
      let after = Gc.quick_stat () in
      add_alloc
        ~minor:(int_of_float (after.Gc.minor_words -. before.Gc.minor_words))
        ~promoted:(int_of_float (after.Gc.promoted_words -. before.Gc.promoted_words)))

(* ------------------------------------------------------------------ *)
(* Per-cell driver                                                     *)
(* ------------------------------------------------------------------ *)

let run_phases ?(workload_seed = 1009) setup phases =
  record_alloc (fun () ->
      let setup = { setup with Common.config = with_engine_config setup.Common.config } in
      let cluster = Common.cluster ?obs:(fresh_obs ()) setup in
      Scenario.run cluster ~phases ~seed:workload_seed;
      record_events cluster;
      cluster)

let named_streams setup ~paper_rate ~duration =
  ignore (Config.validate setup.Common.config);
  ("unif", Common.unif_stream setup ~paper_rate ~duration)
  :: List.map
       (fun alpha ->
         ( Printf.sprintf "uzipf%.2f" alpha,
           Common.uzipf_stream setup ~paper_rate ~alpha ~duration ))
       Common.zipf_orders

let per_second_streams ?scale ~seed ns ~paper_rate ~duration series =
  let setup = Common.make ?scale ~seed ns in
  let streams = named_streams setup ~paper_rate ~duration in
  let rate = setup.Common.rate paper_rate in
  (* One pool cell per stream; each builds its own setup and cluster. *)
  let fractions =
    map
      (fun (label, phases) ->
        let cluster = run_phases (Common.make ?scale ~seed ns) phases in
        let sums = Timeseries.sums (series (Cluster.metrics cluster)) in
        ( label,
          Array.init (int_of_float duration) (fun i ->
              if i < Array.length sums then sums.(i) /. rate else 0.0) ))
      streams
  in
  (rate, fractions)
