(* The sink: a verbosity level, a flight recorder, probe storage, and a
   clock closure the owning cluster points at its engine.  The three
   [*_on] booleans are precomputed so hot paths pay one load + branch to
   discover recording is off. *)

type level = Off | Counters | Spans | Full

let level_to_string = function
  | Off -> "off"
  | Counters -> "counters"
  | Spans -> "spans"
  | Full -> "full"

let level_of_string = function
  | "off" -> Some Off
  | "counters" -> Some Counters
  | "spans" -> Some Spans
  | "full" -> Some Full
  | _ -> None

type t = {
  level : level;
  counters_on : bool;
  spans_on : bool;
  full_on : bool;
  recorder : Recorder.t;
  mutable recorders : Recorder.t array;
      (* per-engine-lane recorders of a multi-domain run; [||] = the
         single-recorder sequential path *)
  mutable stamp : (unit -> int * float * int * int) option;
      (* engine stamp hook: (lane, time, tie, sub) of the running event *)
  probes : Probes.t;
  probe_every : int;
  mutable clock : unit -> float;
}

let make ~level ~capacity ~probe_every =
  {
    level;
    counters_on = level <> Off;
    spans_on = (match level with Spans | Full -> true | Off | Counters -> false);
    full_on = level = Full;
    recorder = Recorder.create ~capacity:(if level = Off then 0 else capacity);
    recorders = [||];
    stamp = None;
    probes = Probes.create ();
    probe_every;
    clock = (fun () -> 0.0);
  }

(* Shared across every cluster (and hence every domain) — but domain-safe:
   all writes to an [Off] sink are gated out ([set_clock], [set_multi],
   [emit] all test the level first), so [null] is immutable in practice.
   This is a record value, not a syntactic mutable root, so the race check
   cannot see it; lane-safety rests on this gate (DESIGN §14). *)
let null = make ~level:Off ~capacity:0 ~probe_every:max_int

let create ?(capacity = 1 lsl 18) ?(probe_every = 2000) ~level () =
  if probe_every < 1 then invalid_arg "Obs.create: probe_every must be >= 1";
  make ~level ~capacity ~probe_every

let level t = t.level

let counters_on t = t.counters_on

let spans_on t = t.spans_on

let full_on t = t.full_on

let recorder t =
  if Array.length t.recorders = 0 then t.recorder
  else Recorder.merged (Array.to_list t.recorders) ~capacity:(Recorder.capacity t.recorder)

let probes t = t.probes

let probe_every t = t.probe_every

(* Guarded so that pointing a clock at the shared [null] sink stays a
   no-op: [null] is immutable in practice and may be shared across
   domains (worker clusters created without a sink). *)
let set_clock t clock = if t.level <> Off then t.clock <- clock

(* Same [null]-guard as [set_clock]: switching the shared disabled sink
   into multi-lane mode would race across domains. *)
let set_multi t ~lanes ~stamp =
  if t.level <> Off then begin
    let capacity = Recorder.capacity t.recorder in
    t.recorders <- Array.init lanes (fun _ -> Recorder.create ~capacity);
    t.stamp <- Some stamp
  end

let record t ~server event =
  if t.counters_on then begin
    match t.stamp with
    | None -> Recorder.record t.recorder ~time:(t.clock ()) ~server event
    | Some stamp ->
      let lane, time, tie, sub = stamp () in
      Recorder.record_stamped t.recorders.(lane) ~time ~tie ~sub ~server event
  end
