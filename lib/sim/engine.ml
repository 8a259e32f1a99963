open Terradir_util

(* The discrete-event engine, sequential or sharded-parallel.

   Events live in per-lane queues (Shard.t) ordered by a canonical,
   partition-independent key: (timestamp, tie), where

     tie = (c lsl 43) lor seq
     c   = executing context + 1 (contexts < 0 — the driver and sync
           pseudo-contexts — share slot 0)
     seq = per-context monotone counter

   Because every event is scheduled from exactly one executing context
   and contexts are confined to one lane each, the counters advance
   identically whatever the shard count K — so the canonical order, and
   with it every simulation output, is byte-identical for all K.

   Lanes: K = 1 is one lane, which is also the coordinator.  K >= 2 is
   K shard lanes plus one coordinator lane (index K) holding every
   pseudo-context event: driver events (context -1, cross-shard writers)
   and sync events (context -2, cross-shard readers).  The run loop
   (DESIGN §13) executes the global minimum solo when it sits on the
   coordinator lane; otherwise it opens a conservative window: with
   lookahead L — the minimum cross-server network latency — every
   cross-shard effect of an event at time t lands at or after t + L, so
   the shard lanes run in parallel up to the exclusive bound
   min((lb + L, -1), next coordinator key, (until, max_int)), where lb is
   the shard minimum.  Cross-lane schedules are parked in per-lane
   outboxes and merged at the barrier; ties are globally unique, so merge
   order is irrelevant.  At K = 1 every event is the coordinator's, so the
   same loop runs them one by one. *)

(* Pseudo-context of workload-driver events (arrival chains, phase
   transitions): they read no shard-owned state and run on the
   coordinator lane. *)
let driver_ctx = -1

let sync_ctx = -2

let ctx_shift = 43

(* c must stay below 2^(62 - ctx_shift) so the tie fits a 63-bit int. *)
let max_ctx = 1 lsl 19

type t = {
  domains : int; (* shard count K; 1 = sequential *)
  lanes : Shard.t array; (* K shard lanes, then the coordinator; length 1 when K = 1 *)
  coord : Shard.t; (* last of [lanes]: pseudo-context events *)
  shard_of : int array; (* context -> lane; unused when K = 1 *)
  lookahead : float;
  mutable counters : int array; (* per-context seq counters, slot = ctx + 1 *)
  mutable observers : (int * (unit -> unit)) list;
      (** (cadence, hook) pairs, in registration order: each hook runs at
          the first check after a multiple of its cadence was crossed —
          between events, never inside one *)
  mutable obs_mark : int; (* executed count at the last observer check *)
  mutable active : Shard.t; (* coordinator domain's lane: [coord] between events *)
  mutable window_on : bool;
  (* lint: boxed-float written once per synchronized window (K >= 2) *)
  mutable window_bound : float; (* time of the open window's bound *)
  dls : Shard.t option Domain.DLS.key; (* worker domains' own lane *)
}

let create ?(domains = 1) ?(lookahead = 0.0) ?(shard_of = [||]) () =
  if domains < 1 then invalid_arg "Engine.create: domains must be >= 1";
  let num_ctx = Array.length shard_of in
  if num_ctx + 1 > max_ctx then invalid_arg "Engine.create: too many contexts";
  if domains > 1 then begin
    if not (lookahead > 0.0) then
      invalid_arg "Engine.create: domains > 1 requires a positive lookahead";
    Array.iter
      (fun s ->
        if s < 0 || s >= domains then invalid_arg "Engine.create: shard assignment out of range")
      shard_of
  end;
  let lanes =
    if domains = 1 then [| Shard.create ~idx:0 ~ndest:0 |]
    else Array.init (domains + 1) (fun i -> Shard.create ~idx:i ~ndest:(domains + 1))
  in
  let coord = lanes.(Array.length lanes - 1) in
  {
    domains;
    lanes;
    coord;
    shard_of = (if domains = 1 then [||] else Array.copy shard_of);
    lookahead;
    counters = Array.make (num_ctx + 1) 0;
    observers = [];
    obs_mark = 0;
    active = coord;
    window_on = false;
    window_bound = 0.0;
    dls = Domain.DLS.new_key (fun () -> None);
  }

let domains t = t.domains

(* Canonical key order: (time, tie) lexicographic. *)
let key_lt t1 s1 t2 s2 = t1 < t2 || (t1 = t2 && s1 < s2)

(* The lane whose event is running on the calling domain: the worker's
   own lane (domain-local) inside a window, otherwise the coordinator
   domain's current lane — the coordinator lane between events. *)
let cur_lane t =
  if t.domains = 1 then t.active
  else match Domain.DLS.get t.dls with Some l -> l | None -> t.active

let now t = Shard.clock (cur_lane t)

let ctx t = Shard.ctx (cur_lane t)

let lane_count t = Array.length t.lanes

let lane_index t = Shard.idx (cur_lane t)

let stamp t =
  let l = cur_lane t in
  (Shard.idx l, Shard.clock l, Shard.tie l, Shard.next_sub l)

let events_executed t = Array.fold_left (fun n l -> n + Shard.executed l) 0 t.lanes

let pending t = Array.fold_left (fun n l -> n + Shard.length l) 0 t.lanes

(* Index of the lane holding the minimum pending key, or -1 when every
   lane is empty. *)
let min_lane t =
  let best = ref (-1) in
  for i = 0 to Array.length t.lanes - 1 do
    let l = t.lanes.(i) in
    if not (Shard.is_empty l) then
      if !best < 0 then best := i
      else begin
        let b = t.lanes.(!best) in
        if key_lt (Shard.top_key l) (Shard.top_tie l) (Shard.top_key b) (Shard.top_tie b) then
          best := i
      end
  done;
  !best

let next_time t =
  let i = min_lane t in
  if i < 0 then None else Some (Shard.top_key t.lanes.(i))

let ensure_counter t c =
  let n = Array.length t.counters in
  if c >= n then begin
    let m = ref (max 1 n) in
    while c >= !m do
      m := !m * 2
    done;
    let fresh = Array.make !m 0 in
    Array.blit t.counters 0 fresh 0 n;
    t.counters <- fresh
  end

(* Allocate the canonical key for a fresh event and route it.  The seq
   counter slot is the EXECUTING context's (+1, negatives sharing slot
   0): each slot is only ever touched by the one lane its context lives
   on, so allocation needs no atomics and is K-independent. *)
let schedule_key t ~owner time f =
  let lane = cur_lane t in
  let cx = Shard.ctx lane in
  let c = if cx < 0 then 0 else cx + 1 in
  ensure_counter t c;
  let seq = t.counters.(c) in
  t.counters.(c) <- seq + 1;
  let tie = (c lsl ctx_shift) lor seq in
  if t.domains = 1 then Shard.enqueue lane ~key:time ~tie ~tag:owner f
  else begin
    let d = if owner >= 0 then t.shard_of.(owner) else t.domains in
    let dest = t.lanes.(d) in
    if t.window_on && dest != lane then begin
      if time < t.window_bound then
        invalid_arg
          "Engine.schedule: cross-shard event inside the open window (lookahead violated)";
      Shard.outbox_push lane ~dest:d ~time ~tie ~owner f
    end
    else Shard.enqueue dest ~key:time ~tie ~tag:owner f
  end

let schedule ?(owner = driver_ctx) t ~delay f =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  schedule_key t ~owner (now t +. delay) f

let schedule_at ?(owner = driver_ctx) t time f =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: non-finite time";
  if time < now t then invalid_arg "Engine.schedule_at: scheduling into the past";
  schedule_key t ~owner time f

let add_observer t ~every f =
  if every < 1 then invalid_arg "Engine.add_observer: every must be >= 1";
  t.observers <- t.observers @ [ (every, f) ]

(* The one observer rule: fire every hook whose cadence multiple was
   crossed since the last check.  Checks happen after each event at
   K = 1 and after each barrier (window or solo event) at K >= 2; the
   window schedule depends only on keys and the lookahead, so those
   points are identical for every K >= 2. *)
let fire_observers t =
  let total = events_executed t in
  (match t.observers with
  | [] -> ()
  | observers ->
    List.iter (fun (every, obs) -> if total / every > t.obs_mark / every then obs ()) observers);
  t.obs_mark <- total

let step t =
  if t.domains <> 1 then invalid_arg "Engine.step: unavailable on a multi-domain engine";
  if Shard.is_empty t.coord then false
  else begin
    Shard.pop_run t.coord;
    fire_observers t;
    true
  end

(* One synchronized window bounded exclusively by (time, tie): gang
   worker [w] drives shard lane [w + 1], the calling domain drives lane 0
   and then blocks at the barrier (worker exceptions re-raise there);
   cross-lane deposits are merged after it. *)
let run_window t gang ~time ~tie =
  t.window_bound <- time;
  t.window_on <- true;
  Pool.Gang.launch gang (fun w ->
      let lane = t.lanes.(w + 1) in
      Domain.DLS.set t.dls (Some lane);
      Shard.run_below lane ~time ~tie);
  t.active <- t.lanes.(0);
  Shard.run_below t.lanes.(0) ~time ~tie;
  t.active <- t.coord;
  Pool.Gang.join gang;
  t.window_on <- false;
  for i = 0 to t.domains - 1 do
    Shard.drain_outboxes t.lanes.(i) ~f:(fun ~dest ~time ~tie ~owner f ->
        Shard.enqueue t.lanes.(dest) ~key:time ~tie ~tag:owner f)
  done;
  Shard.set_clock t.coord time

let run ?until t =
  (match until with
  | Some s when s < now t -> invalid_arg "Engine.run: until is in the past"
  | _ -> ());
  let stop = match until with None -> infinity | Some s -> s in
  let gang = if t.domains > 1 then Some (Pool.Gang.create ~workers:(t.domains - 1)) else None in
  Fun.protect ~finally:(fun () -> Option.iter Pool.Gang.shutdown gang) @@ fun () ->
  let coord = t.coord in
  let running = ref true in
  while !running do
    let i = min_lane t in
    if i < 0 || not (Shard.top_key t.lanes.(i) <= stop) then running := false
    else if t.lanes.(i) == coord then begin
      (* Driver and sync events touch cross-shard state (injections
         mutate arbitrary servers' queues; the monitor reads every
         server), so each runs SOLO at its canonical position in the
         global order, with every shard lane idle. *)
      Shard.pop_run coord;
      fire_observers t
    end
    else begin
      let bt = Shard.top_key t.lanes.(i) +. t.lookahead in
      let bt, btie =
        if Shard.is_empty coord then (bt, -1)
        else begin
          let ck = Shard.top_key coord and ct = Shard.top_tie coord in
          if key_lt ck ct bt (-1) then (ck, ct) else (bt, -1)
        end
      in
      let bt, btie = if stop < bt then (stop, max_int) else (bt, btie) in
      run_window t (Option.get gang) ~time:bt ~tie:btie;
      fire_observers t
    end
  done;
  match until with
  | Some s -> Array.iter (fun l -> Shard.set_clock l s) t.lanes
  | None ->
    Shard.set_clock coord (Array.fold_left (fun m l -> Float.max m (Shard.clock l)) 0.0 t.lanes)
