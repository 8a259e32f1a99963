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
   with it every simulation output, is byte-identical for all K
   (including K = 1, the plain sequential engine).

   K >= 2 runs conservative synchronized windows (see Par_engine and
   DESIGN §13): driver events (context -1, cross-shard writers) and sync
   events (context -2, cross-shard readers) each run solo when they are
   the global minimum; shard lanes execute in parallel up to a
   lookahead-bounded exclusive key — capped by the next solo key —
   exchanging cross-shard events through outboxes merged at the
   barrier. *)

(* Pseudo-context of workload-driver events (arrival chains, phase
   transitions): they read no shard-owned state and run on the
   coordinator, possibly ahead of slower shards. *)
let driver_ctx = -1

let sync_ctx = -2

let ctx_shift = 43

(* c must stay below 2^(62 - ctx_shift) so the tie fits a 63-bit int. *)
let max_ctx = 1 lsl 19

type t = {
  mutable domains : int; (* shard count K; 1 = sequential *)
  mutable lanes : Shard.t array; (* length K *)
  mutable driver : Shard.t; (* = lanes.(0) when K = 1 *)
  mutable sync : Shard.t; (* = lanes.(0) when K = 1 *)
  mutable shard_of : int array; (* context -> lane; unused when K = 1 *)
  (* lint: boxed-float set once, by configure *)
  mutable lookahead : float;
  mutable counters : int array; (* per-context seq counters, slot = ctx + 1 *)
  mutable observers : (int * (unit -> unit)) list;
      (** (cadence, hook) pairs, in registration order: each hook runs
          after every [cadence]-th event (K = 1) or at the first
          barrier crossing a cadence multiple (K >= 2), between events —
          never inside one *)
  mutable obs_mark : int; (* executed count at the last barrier check *)
  mutable active : Shard.t option; (* coordinator's lane while inside an event *)
  mutable window_on : bool;
  (* lint: boxed-float written once per synchronized window (K >= 2) *)
  mutable window_bound : float; (* time of the open window's bound *)
  (* lint: boxed-float read only at K >= 2, written per window or solo event there *)
  mutable vclock : float; (* coordinator clock between events (K >= 2) *)
  dls : Shard.t option Domain.DLS.key; (* worker domains' own lane *)
  lane0_opt : Shard.t option; (* [Some lanes.(0)] of a sequential engine, built once *)
}

let create () =
  let lane0 = Shard.create ~idx:0 ~ndest:0 in
  {
    domains = 1;
    lanes = [| lane0 |];
    driver = lane0;
    sync = lane0;
    shard_of = [||];
    lookahead = 0.0;
    counters = Array.make 1 0;
    observers = [];
    obs_mark = 0;
    active = None;
    window_on = false;
    window_bound = 0.0;
    vclock = 0.0;
    dls = Domain.DLS.new_key (fun () -> None);
    lane0_opt = Some lane0;
  }

let domains t = t.domains

(* The lane whose event is running on the calling domain: lane 0 when
   sequential; the worker's own lane (domain-local) or the coordinator's
   current lane when parallel; [None] between events on the coordinator.
   Called several times per event, so the sequential answer is a
   preallocated option rather than a fresh [Some]. *)
let cur_lane_opt t =
  if t.domains = 1 then t.lane0_opt
  else match Domain.DLS.get t.dls with Some _ as l -> l | None -> t.active

let now t = match cur_lane_opt t with Some l -> Shard.clock l | None -> t.vclock

let ctx t = match cur_lane_opt t with Some l -> Shard.ctx l | None -> -1

let lane_count t = if t.domains = 1 then 1 else t.domains + 1

let lane_index t = match cur_lane_opt t with Some l -> Shard.idx l | None -> t.domains

let stamp t =
  match cur_lane_opt t with
  | Some l -> (Shard.idx l, Shard.clock l, Shard.tie l, Shard.next_sub l)
  | None -> (t.domains, t.vclock, 0, 0)

let events_executed t =
  if t.domains = 1 then Shard.executed t.lanes.(0)
  else begin
    let n = ref (Shard.executed t.driver + Shard.executed t.sync) in
    Array.iter (fun l -> n := !n + Shard.executed l) t.lanes;
    !n
  end

let pending t =
  if t.domains = 1 then Shard.length t.lanes.(0)
  else begin
    let n = ref (Shard.length t.driver + Shard.length t.sync) in
    Array.iter (fun l -> n := !n + Shard.length l) t.lanes;
    !n
  end

let next_time t =
  if t.domains = 1 then
    if Shard.is_empty t.lanes.(0) then None else Some (Shard.top_key t.lanes.(0))
  else begin
    let best = ref None in
    let consider lane =
      if not (Shard.is_empty lane) then begin
        let k = Shard.top_key lane and s = Shard.top_tie lane in
        match !best with
        | None -> best := Some (k, s)
        | Some (bk, bs) -> if Par_engine.key_lt k s bk bs then best := Some (k, s)
      end
    in
    Array.iter consider t.lanes;
    consider t.driver;
    consider t.sync;
    Option.map fst !best
  end

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

let configure t ~domains ~lookahead ~shard_of =
  if events_executed t <> 0 || pending t <> 0 || t.domains <> 1 then
    invalid_arg "Engine.configure: engine already in use";
  if domains < 1 then invalid_arg "Engine.configure: domains must be >= 1";
  let num_ctx = Array.length shard_of in
  if num_ctx + 1 > max_ctx then invalid_arg "Engine.configure: too many contexts";
  ensure_counter t num_ctx;
  if domains > 1 then begin
    if not (lookahead > 0.0) then
      invalid_arg "Engine.configure: domains > 1 requires a positive lookahead";
    Array.iter
      (fun s ->
        if s < 0 || s >= domains then
          invalid_arg "Engine.configure: shard assignment out of range")
      shard_of;
    t.domains <- domains;
    t.shard_of <- Array.copy shard_of;
    t.lookahead <- lookahead;
    let ndest = domains + 2 in
    t.lanes <- Array.init domains (fun i -> Shard.create ~idx:i ~ndest);
    t.driver <- Shard.create ~idx:domains ~ndest;
    t.sync <- Shard.create ~idx:domains ~ndest
  end

(* Allocate the canonical key for a fresh event and route it.  The seq
   counter slot is the EXECUTING context's (+1, negatives sharing slot
   0): each slot is only ever touched by the one lane its context lives
   on, so allocation needs no atomics and is K-independent. *)
let schedule_key t ~owner time f =
  let lane_opt = cur_lane_opt t in
  let cx = match lane_opt with Some l -> Shard.ctx l | None -> -1 in
  let c = if cx < 0 then 0 else cx + 1 in
  ensure_counter t c;
  let seq = t.counters.(c) in
  t.counters.(c) <- seq + 1;
  let tie = (c lsl ctx_shift) lor seq in
  if t.domains = 1 then Shard.enqueue t.lanes.(0) ~key:time ~tie ~tag:owner f
  else begin
    let d =
      if owner >= 0 then t.shard_of.(owner)
      else if owner = driver_ctx then t.domains
      else t.domains + 1
    in
    let dest = if d < t.domains then t.lanes.(d) else if d = t.domains then t.driver else t.sync in
    match lane_opt with
    | Some lane when t.window_on && dest != lane ->
      if time < t.window_bound then
        invalid_arg "Engine.schedule: cross-shard event inside the open window (lookahead violated)";
      Shard.outbox_push lane ~dest:d ~time ~tie ~owner f
    | _ -> Shard.enqueue dest ~key:time ~tie ~tag:owner f
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

(* ---- sequential execution (K = 1) ---- *)

let step t =
  if t.domains <> 1 then invalid_arg "Engine.step: unavailable on a multi-domain engine";
  let lane = t.lanes.(0) in
  if Shard.is_empty lane then false
  else begin
    Shard.pop_run lane;
    (match t.observers with
    | [] -> ()
    | observers ->
      List.iter (fun (every, obs) -> if Shard.executed lane mod every = 0 then obs ()) observers);
    true
  end

let seq_run ?until t =
  let lane = t.lanes.(0) in
  match until with
  | None -> while step t do () done
  | Some stop ->
    if stop < Shard.clock lane then invalid_arg "Engine.run: until is in the past";
    let continue = ref true in
    while !continue do
      if (not (Shard.is_empty lane)) && Shard.top_key lane <= stop then ignore (step t)
      else continue := false
    done;
    Shard.set_clock lane stop;
    t.vclock <- stop

(* ---- parallel execution (K >= 2) ---- *)

(* Fire observers that crossed a cadence multiple since the last check.
   Windows execute a K-independent set of events (the window schedule
   depends only on keys and the lookahead), so these firing points are
   identical for every K >= 2. *)
let fire_par t =
  (match t.observers with
  | [] -> ()
  | observers ->
    let total = events_executed t in
    List.iter
      (fun (every, obs) -> if total / every > t.obs_mark / every then obs ())
      observers);
  t.obs_mark <- events_executed t

let par_run ?until t =
  (match until with
  | Some s when s < t.vclock -> invalid_arg "Engine.run: until is in the past"
  | _ -> ());
  let in_stop k = match until with None -> true | Some s -> k <= s in
  let gang = Par_engine.create_gang ~workers:(t.domains - 1) in
  Fun.protect ~finally:(fun () -> Par_engine.shutdown_gang gang) @@ fun () ->
  let running = ref true in
  while !running do
    let lb = Par_engine.shard_min t.lanes in
    (* Driver and sync pseudo-context events both touch cross-shard state
       (injections mutate arbitrary servers' queues; the monitor reads
       every server), so each runs SOLO, exactly at its canonical position
       in the global order — never ahead of pending shard events whose
       keys precede it.  The next solo key also caps the window bound. *)
    let solo =
      let consider lane acc =
        if Shard.is_empty lane then acc
        else begin
          let k = Shard.top_key lane and s = Shard.top_tie lane in
          match acc with
          | Some (_, ak, asq) when Par_engine.key_lt ak asq k s -> acc
          | _ -> Some (lane, k, s)
        end
      in
      consider t.driver (consider t.sync None)
    in
    match (lb, solo) with
    | None, None -> running := false
    | _, Some (lane, sk, ss)
      when match lb with None -> true | Some (lk, ls) -> Par_engine.key_lt sk ss lk ls ->
      if in_stop sk then begin
        t.active <- Some lane;
        Shard.pop_run lane;
        t.active <- None;
        t.vclock <- sk;
        fire_par t
      end
      else running := false
    | None, Some _ -> assert false (* the solo guard above always takes this case *)
    | Some (lk, _), _ ->
      if not (in_stop lk) then running := false
      else begin
        let sm = Option.map (fun (_, k, s) -> (k, s)) solo in
        let bt, btie = Par_engine.window_bound ~lb_time:lk ~lookahead:t.lookahead ~sync:sm ~until in
        t.window_bound <- bt;
        t.window_on <- true;
        Par_engine.run_window gang t.lanes ~time:bt ~tie:btie
          ~prepare:(fun lane -> Domain.DLS.set t.dls (Some lane))
          ~coordinate:(fun drive ->
            t.active <- Some t.lanes.(0);
            drive ();
            t.active <- None);
        t.window_on <- false;
        Array.iter
          (fun lane ->
            Shard.drain_outboxes lane ~f:(fun ~dest ~time ~tie ~owner f ->
                let dst =
                  if dest < t.domains then t.lanes.(dest)
                  else if dest = t.domains then t.driver
                  else t.sync
                in
                Shard.enqueue dst ~key:time ~tie ~tag:owner f))
          t.lanes;
        t.vclock <- bt;
        fire_par t
      end
  done;
  match until with
  | Some s ->
    t.vclock <- s;
    Array.iter (fun l -> Shard.set_clock l s) t.lanes;
    Shard.set_clock t.driver s;
    Shard.set_clock t.sync s
  | None ->
    let m = ref t.vclock in
    Array.iter (fun l -> if Shard.clock l > !m then m := Shard.clock l) t.lanes;
    if Shard.clock t.driver > !m then m := Shard.clock t.driver;
    if Shard.clock t.sync > !m then m := Shard.clock t.sync;
    t.vclock <- !m

let run ?until t = if t.domains = 1 then seq_run ?until t else par_run ?until t
