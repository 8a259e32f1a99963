open Terradir_util
open Terradir_sim
open Terradir
open Terradir_workload
module Obs = Terradir_obs.Obs
module Event = Terradir_obs.Event
module Hist = Terradir_obs.Hist

(* ---- timeline validation ----

   Everything checkable before the run is checked before the run, at any
   engine shard count: a campaign must fail identically whether it was
   about to run on 1 domain or 4 (a K-dependent failure would itself be a
   determinism bug). *)

let check_ids ~what ~n ids =
  if ids = [] then invalid_arg (Printf.sprintf "Chaos.run: %s: empty server list" what);
  List.iter
    (fun sid ->
      if sid < 0 || sid >= n then
        invalid_arg (Printf.sprintf "Chaos.run: %s: server %d out of range [0, %d)" what sid n))
    ids

let validate_timeline cluster timeline =
  let n = Cluster.num_servers cluster in
  let config = cluster.Cluster.config in
  let tags = Hashtbl.create 8 in
  List.iter
    (fun (_, action) ->
      match action with
      | Action.Kill ids -> check_ids ~what:"Kill" ~n ids
      | Action.Revive ids -> check_ids ~what:"Revive" ~n ids
      | Action.Revive_killed -> ()
      | Action.Graceful_leave ids -> check_ids ~what:"Graceful_leave" ~n ids
      | Action.Kill_fraction { fraction; _ } ->
        if fraction < 0.0 || fraction >= 1.0 || Float.is_nan fraction then
          invalid_arg "Chaos.run: Kill_fraction: fraction must be in [0, 1)"
      | Action.Partition { tag; a; b; _ } ->
        check_ids ~what:"Partition side a" ~n a;
        check_ids ~what:"Partition side b" ~n b;
        List.iter
          (fun sid ->
            if List.mem sid b then
              invalid_arg
                (Printf.sprintf "Chaos.run: Partition %s: sides intersect at server %d" tag sid))
          a;
        Hashtbl.replace tags tag ()
      | Action.Heal tag ->
        if not (Hashtbl.mem tags tag) then
          invalid_arg
            (Printf.sprintf "Chaos.run: Heal %s: no earlier Partition installed that tag" tag)
      | Action.Heal_all -> ()
      | Action.Set_loss p ->
        if p < 0.0 || p > 1.0 || Float.is_nan p then
          invalid_arg "Chaos.run: Set_loss: probability must be in [0, 1]"
      | Action.Set_jitter j ->
        (* Determinism rule: the conservative engine's lookahead was fixed
           at cluster creation from Net.min_latency = network_delay -
           net_jitter.  A mid-run jitter above the configured ceiling
           would push the latency floor below the lookahead — undefined
           at K > 1 — so it is rejected at every K: campaigns that shake
           jitter must budget for the maximum in [config.net_jitter]. *)
        if j < 0.0 || Float.is_nan j then invalid_arg "Chaos.run: Set_jitter: must be >= 0";
        if j > config.Config.net_jitter then
          invalid_arg
            (Printf.sprintf
               "Chaos.run: Set_jitter %.6f exceeds config.net_jitter %.6f (the engine \
                lookahead budget fixed at cluster creation); raise net_jitter in the config \
                and open the timeline with a Set_jitter at the intended starting value"
               j config.Config.net_jitter)
      | Action.Flash_crowd { phases; _ } ->
        Stream.check_phases ~context:"Chaos.run: Flash_crowd" phases
      | Action.Rate_shift f ->
        if (not (f > 0.0)) || not (Float.is_finite f) then
          invalid_arg "Chaos.run: Rate_shift: factor must be positive and finite")
    (Timeline.entries timeline)

(* ---- the runner ---- *)

type snapshot = {
  s_metrics : Metrics.t;
  s_alive : int;
}

let snap cluster = { s_metrics = Cluster.metrics cluster; s_alive = Cluster.alive_servers cluster }

(* What happened between two snapshots, as a report window: the counts,
   availability (1.0 when nothing was issued) and the p99 of the
   resolutions in between (0 when none).  The baseline and the totals are
   the same arithmetic over longer spans. *)
let between ~w_start ~w_end a b =
  let a = a.s_metrics and m = b.s_metrics in
  let issued = m.Metrics.injected - a.Metrics.injected in
  let resolved = m.Metrics.resolved - a.Metrics.resolved in
  {
    Report.w_start;
    w_end;
    issued;
    resolved;
    dropped = Metrics.dropped_total m - Metrics.dropped_total a;
    availability =
      (if issued <= 0 then 1.0 else Float.min 1.0 (float_of_int resolved /. float_of_int issued));
    p99_latency =
      (if resolved <= 0 then 0.0
       else Hist.percentile (Hist.diff m.Metrics.latency_hist ~since:a.Metrics.latency_hist) 0.99);
    replicas_created = m.Metrics.replicas_created - a.Metrics.replicas_created;
    net_lost = m.Metrics.net_lost - a.Metrics.net_lost;
    net_blocked = m.Metrics.net_blocked - a.Metrics.net_blocked;
    alive = b.s_alive;
  }

let apply cluster ~killed ~partitions ~base_driver action =
  let net = cluster.Cluster.net in
  let config = cluster.Cluster.config in
  (match action with
  | Action.Kill ids ->
    List.iter
      (fun sid ->
        Cluster.kill cluster sid;
        Hashtbl.replace killed sid ())
      ids
  | Action.Revive ids ->
    List.iter
      (fun sid ->
        Cluster.revive cluster sid;
        Hashtbl.remove killed sid)
      ids
  | Action.Revive_killed ->
    (* Ascending id order, membership-tested — never Hashtbl iteration
       order, which is insertion-history dependent. *)
    for sid = 0 to Cluster.num_servers cluster - 1 do
      if Hashtbl.mem killed sid then begin
        Cluster.revive cluster sid;
        Hashtbl.remove killed sid
      end
    done
  | Action.Graceful_leave ids ->
    List.iter
      (fun sid ->
        Cluster.graceful_leave cluster sid;
        Hashtbl.replace killed sid ())
      ids
  | Action.Kill_fraction { fraction; salt } ->
    (* Private stream seeded from the salt: the pick depends on the set of
       currently-alive servers (deterministic at this event) and nothing
       else — not on the cluster rng's position, not on the shard count. *)
    let alive =
      Array.of_seq
        (Seq.filter
           (fun sid -> (Cluster.server cluster sid).Server.alive)
           (Seq.init (Cluster.num_servers cluster) Fun.id))
    in
    let count = Array.length alive in
    let victims = min (int_of_float (fraction *. float_of_int count)) (count - 1) in
    if victims > 0 then begin
      let rng = Splitmix.create (salt lxor 0xc4a05) in
      let perm = Splitmix.permutation rng count in
      let picked = Array.sub perm 0 victims in
      Array.sort Int.compare picked;
      Array.iter
        (fun ix ->
          Cluster.kill cluster alive.(ix);
          Hashtbl.replace killed alive.(ix) ())
        picked
    end
  | Action.Partition { tag; a; b; directed } ->
    let pid = Net.partition ~directed net ~a ~b in
    Hashtbl.replace partitions tag pid
  | Action.Heal tag -> (
    match Hashtbl.find_opt partitions tag with
    | Some pid ->
      Net.heal net pid;
      Hashtbl.remove partitions tag
    | None -> () (* healed twice: idempotent, like Net.heal itself *))
  | Action.Heal_all ->
    Net.heal_all net;
    Hashtbl.reset partitions
  | Action.Set_loss p -> Net.set_loss net p
  | Action.Set_jitter j ->
    let base = config.Config.network_delay in
    Net.set_latency net (if j <= 0.0 then Net.Constant base else Net.Uniform { base; jitter = j })
  | Action.Flash_crowd { phases; seed } ->
    ignore (Scenario.start cluster ~phases ~seed : Scenario.driver)
  | Action.Rate_shift f -> Scenario.set_rate_factor base_driver f);
  let obs = cluster.Cluster.obs in
  if Obs.counters_on obs then
    (* lint: obs-in-hot-path rare (a handful per campaign), solo driver event, counters level *)
    Obs.record obs ~server:0
      (Event.Chaos_action { action = Action.kind action; detail = Action.detail action })

let run ?(drain = 2.0) ?(window = 1.0) ?(slo = Report.default_slo) ?(scenario = "custom")
    ?(seed = 0) ?(fetch_probability = 0.0) cluster ~workload ~workload_seed ~timeline () =
  if window <= 0.0 || Float.is_nan window then
    invalid_arg "Chaos.run: window must be positive";
  if drain < 0.0 || Float.is_nan drain then invalid_arg "Chaos.run: drain must be >= 0";
  if slo.Report.availability_drop < 0.0 || slo.Report.p99_factor < 1.0 then
    invalid_arg "Chaos.run: slo band must have availability_drop >= 0 and p99_factor >= 1";
  validate_timeline cluster timeline;
  let engine = cluster.Cluster.engine in
  let start_t = Engine.now engine in
  let base_driver = Scenario.start ~fetch_probability cluster ~phases:workload ~seed:workload_seed in
  (* The run must cover the base stream, every flash crowd, and the drain
     tail — then round up to a whole number of windows so the last
     snapshot lands exactly on the run's end event. *)
  let raw_end =
    List.fold_left
      (fun acc (at, action) ->
        match action with
        | Action.Flash_crowd { phases; _ } ->
          Float.max acc (start_t +. at +. Stream.total_duration phases)
        | _ -> acc)
      (Scenario.stream_end base_driver)
      (Timeline.entries timeline)
    +. drain
  in
  let nwin = max 1 (int_of_float (Float.ceil ((raw_end -. start_t) /. window))) in
  let end_t = start_t +. (float_of_int nwin *. window) in
  (* Fault bookkeeping lives in driver-event closures: driver events run
     solo, so plain Hashtbls are single-threaded here at any K. *)
  let killed = Hashtbl.create 16 in
  let partitions = Hashtbl.create 8 in
  let fired = ref [] in
  List.iter
    (fun (at, action) ->
      Engine.schedule_at engine (start_t +. at) (fun () ->
          apply cluster ~killed ~partitions ~base_driver action;
          fired :=
            {
              Report.e_time = start_t +. at;
              e_kind = Action.kind action;
              e_detail = Action.detail action;
              e_recovery = Action.is_recovery action;
            }
            :: !fired))
    (Timeline.entries timeline);
  let snaps = Array.make (nwin + 1) None in
  snaps.(0) <- Some (snap cluster);
  for k = 1 to nwin do
    (* Window closes are pure observation (Cluster.metrics builds a fresh
       merged struct); they run in the solo sync context so a K-domain
       engine quiesces before the cluster-wide read. *)
    Engine.schedule_at ~owner:Engine.sync_ctx engine
      (start_t +. (float_of_int k *. window))
      (fun () -> snaps.(k) <- Some (snap cluster))
  done;
  Cluster.run_until cluster end_t;
  let snap_at k =
    match snaps.(k) with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "Chaos.run: window %d snapshot never ran" k)
  in
  let at k = start_t +. (float_of_int k *. window) in
  let windows =
    List.init nwin (fun k ->
        between ~w_start:(at k) ~w_end:(at (k + 1)) (snap_at k) (snap_at (k + 1)))
  in
  let baseline =
    match Timeline.first_time timeline with
    | None -> None
    | Some first ->
      let b_windows = min nwin (int_of_float (Float.floor (first /. window))) in
      if b_windows <= 0 then None
      else begin
        let w = between ~w_start:start_t ~w_end:(at b_windows) (snap_at 0) (snap_at b_windows) in
        Some
          { Report.b_windows; b_availability = w.Report.availability; b_p99 = w.Report.p99_latency }
      end
  in
  let events = List.rev !fired in
  let recoveries =
    List.filter_map
      (fun e ->
        if not e.Report.e_recovery then None
        else
          let reconverged =
            match baseline with
            | None -> None
            | Some base ->
              List.find_map
                (fun w ->
                  if
                    w.Report.w_start >= e.Report.e_time
                    && w.Report.issued > 0
                    && w.Report.availability >= base.Report.b_availability -. slo.Report.availability_drop
                    && (base.Report.b_p99 <= 0.0
                       || w.Report.p99_latency <= slo.Report.p99_factor *. base.Report.b_p99)
                  then Some w.Report.w_end
                  else None)
                windows
          in
          Some { Report.r_time = e.Report.e_time; r_kind = e.Report.e_kind; r_reconverged = reconverged })
      events
  in
  let { Report.issued; resolved; dropped; replicas_created; net_lost; net_blocked; _ } =
    between ~w_start:start_t ~w_end:end_t (snap_at 0) (snap_at nwin)
  in
  {
    Report.scenario;
    seed;
    workload_seed;
    engine_domains = Engine.domains engine;
    servers = Cluster.num_servers cluster;
    window_s = window;
    duration_s = end_t -. start_t;
    slo;
    baseline;
    windows;
    events;
    recoveries;
    totals =
      {
        Report.injected = issued;
        resolved_total = resolved;
        dropped_total = dropped;
        unresolved = issued - resolved - dropped;
        replicas_total = replicas_created;
        net_lost_total = net_lost;
        net_blocked_total = net_blocked;
      };
  }
