module Obs = Terradir_obs.Obs
module Event = Terradir_obs.Event

let max_shed_nodes = 32

let effective_high_water (s : Server.t) ~now =
  let floor_threshold = s.config.Config.high_water in
  let factor = s.config.Config.high_water_factor in
  if factor <= 0.0 then floor_threshold
  else begin
    (* Believed overall utilization: peer loads learned in-band (their sum
       is maintained incrementally — this check runs after every processed
       message, so a fold here would cost O(peers) per event), plus own
       last measurement.  Raw (not adjusted) own load: the threshold should
       track reality, not the post-shed hysteresis value. *)
    let sum = Load_meter.raw_load s.load now +. Server.peer_load_sum s in
    let n = 1 + Terradir_util.Packed_table.length s.Server.known_loads in
    let mean = sum /. float_of_int n in
    Float.max floor_threshold (Float.min 0.95 (factor *. mean))
  end

(* The trigger uses the sustained (two-window minimum) load: single-window
   excursions at moderate utilization would otherwise fire sessions
   spuriously and the system would never quiesce. *)
let should_start (s : Server.t) ~now =
  let go =
    s.config.Config.features.Config.replication
    && s.session = None
    && now >= Server.session_backoff_until s
    && Terradir_util.Intmap.length s.hosted > 0
    && Load_meter.sustained_load s.load now >= s.config.Config.high_water (* cheap floor *)
    && Load_meter.sustained_load s.load now >= effective_high_water s ~now
  in
  if go && Obs.counters_on s.Server.obs then
    (* lint: obs-in-hot-path fires at most once per session; counters level *)
    Obs.record s.Server.obs ~server:s.Server.id
      (Event.Session_trigger { load = Load_meter.sustained_load s.load now });
  go

let shed_target ~l_source ~l_dest =
  if l_source <= 0.0 then 0.0 else Float.max 0.0 ((l_source -. l_dest) /. (2.0 *. l_source))

let acceptable ~config ~l_source ~l_dest = l_source -. l_dest >= config.Config.min_delta

let select_nodes (s : Server.t) ~l_source ~l_dest ~now =
  ignore now;
  let hosted = Server.hosted_nodes s in
  let ranked = Ranking.ranked_desc s.ranking ~among:hosted in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 ranked in
  if total <= 0.0 then []
  else begin
    let want = shed_target ~l_source ~l_dest *. total in
    let rec take acc weight_so_far count = function
      | [] -> List.rev acc
      | _ when count >= max_shed_nodes -> List.rev acc
      | (node, w) :: rest ->
        let acc = node :: acc and weight_so_far = weight_so_far +. w in
        if weight_so_far >= want then List.rev acc
        else take acc weight_so_far (count + 1) rest
    in
    take [] 0.0 0 ranked
  end

let adjusted_load ~l_source ~l_dest = (l_source +. l_dest) /. 2.0
