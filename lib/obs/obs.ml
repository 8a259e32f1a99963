(* The sink: a verbosity level, one flight recorder per engine lane,
   probe storage, and the engine's stamp hook, installed by [attach].
   The three [*_on] booleans are precomputed so hot paths pay one load +
   branch to discover recording is off. *)

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
  mutable recorders : Recorder.t array; (* one per engine lane *)
  mutable stamp : unit -> int * float * int * int;
      (* engine stamp hook: (lane, time, tie, sub) of the running event *)
  probes : Probes.t;
  probe_every : int;
}

let make ~level ~capacity ~probe_every =
  {
    level;
    counters_on = level <> Off;
    spans_on = (match level with Spans | Full -> true | Off | Counters -> false);
    full_on = level = Full;
    recorders = [| Recorder.create ~capacity:(if level = Off then 0 else capacity) |];
    stamp = (fun () -> (0, 0.0, 0, 0));
    probes = Probes.create ();
    probe_every;
  }

(* Shared across every cluster (and hence every domain) — but domain-safe:
   all writes to an [Off] sink are gated out ([attach] and [record] both
   test the level first), so [null] is immutable in practice.  This is a
   record value, not a syntactic mutable root, so the race check cannot
   see it; lane-safety rests on this gate (DESIGN §14). *)
let null = make ~level:Off ~capacity:0 ~probe_every:max_int

let create ?(capacity = 1 lsl 18) ?(probe_every = 2000) ~level () =
  if probe_every < 1 then invalid_arg "Obs.create: probe_every must be >= 1";
  make ~level ~capacity ~probe_every

let level t = t.level

let counters_on t = t.counters_on

let spans_on t = t.spans_on

let full_on t = t.full_on

let recorder t =
  match t.recorders with
  | [| r |] -> r
  | rs -> Recorder.merged (Array.to_list rs) ~capacity:(Recorder.capacity rs.(0))

let probes t = t.probes

let probe_every t = t.probe_every

let attach t ~lanes ~stamp =
  if t.level <> Off then begin
    let capacity = Recorder.capacity t.recorders.(0) in
    t.recorders <- Array.init lanes (fun _ -> Recorder.create ~capacity);
    t.stamp <- stamp
  end

let record t ~server event =
  if t.counters_on then begin
    let lane, time, tie, sub = t.stamp () in
    Recorder.record t.recorders.(lane) ~time ~tie ~sub ~server event
  end
