open Terradir_util
open Terradir_sim
open Terradir

type driver = {
  d_end : float;
  d_factor : float ref;
}

(* Schedule one stream's phase transitions and arrival chain onto the
   cluster's engine.  Starts at the current engine time; the returned
   driver carries the stream's end time and a live rate multiplier.

   Byte-compat invariant: with the factor left at 1.0 this must consume
   randomness and schedule events in exactly the historical order
   (sampler, arrival rng, phase installs, fetch rng, arrival kick) —
   the golden CSVs pin that order.  [x *. 1.0 = x] exactly in IEEE for
   any finite rate, so the multiplier is free until someone shifts it. *)
let start ?(fetch_probability = 0.0) ?(on_phase = fun _ _ -> ()) cluster ~phases ~seed =
  Stream.check_phases ~context:"Scenario.run" phases;
  let engine = cluster.Cluster.engine in
  let sampler = Stream.sampler ~tree:cluster.Cluster.tree ~seed in
  let arrival_rng = Splitmix.create (seed lxor 0x5ca1ab1e) in
  let start = Engine.now engine in
  let stream_end = start +. Stream.total_duration phases in
  (* Current phase state, updated by scheduled transitions. *)
  let rate = ref (List.hd phases).Stream.rate in
  let factor = ref 1.0 in
  let rec install_phases idx t0 = function
    | [] -> ()
    | p :: rest ->
      Engine.schedule_at engine t0 (fun () ->
          on_phase idx p;
          rate := p.Stream.rate;
          Stream.install sampler p.Stream.dist);
      install_phases (idx + 1) (t0 +. p.Stream.duration) rest
  in
  install_phases 0 start phases;
  let fetch_rng = Splitmix.create (seed lxor 0xfe7c4) in
  let inject_one () =
    let dst = Stream.sample sampler in
    if fetch_probability > 0.0 && Splitmix.float fetch_rng 1.0 < fetch_probability then begin
      (* Two-step access (§2.1): look the node up, then retrieve its data
         from one of the hosts in the returned map.  The client is the
         lookup's source server; resolution is always asynchronous, so the
         reference is filled before any fetch can fire. *)
      let client = ref 0 in
      client :=
        Cluster.inject_uniform_src cluster ~dst ~on_complete:(fun outcome ->
            match outcome with
            | Terradir.Types.Resolved _ -> Cluster.fetch cluster ~client:!client ~node:dst
            | Terradir.Types.Dropped _ -> ())
    end
    else ignore (Cluster.inject_uniform_src cluster ~dst : Terradir.Types.server_id)
  in
  let rec arrival () =
    let gap = Dist.poisson_gap arrival_rng ~rate:(!rate *. !factor) in
    let next = Engine.now engine +. gap in
    if next < stream_end then
      Engine.schedule_at engine next (fun () ->
          inject_one ();
          arrival ())
  in
  (* Kick the chain just after phase 0 installs. *)
  Engine.schedule_at engine start (fun () -> arrival ());
  { d_end = stream_end; d_factor = factor }

let stream_end d = d.d_end

let set_rate_factor d f =
  if (not (f > 0.0)) || not (Float.is_finite f) then
    invalid_arg "Scenario.set_rate_factor: factor must be positive and finite";
  d.d_factor := f

let run ?(drain = 2.0) ?on_phase ?fetch_probability cluster ~phases ~seed =
  let d = start ?fetch_probability ?on_phase cluster ~phases ~seed in
  Cluster.run_until cluster (d.d_end +. drain)
