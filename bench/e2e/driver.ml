(* The driver: runs episodes in child processes of this executable, one
   child at a time and never on more than two engine domains, checks the
   episodes against each other, and reports. *)

let fail fmt = Printf.ksprintf failwith fmt

(* ---- child processes ---- *)

let spawn (w : Workload.t) ~size ~seed ~mode =
  let exe = Sys.executable_name in
  let argv =
    [|
      exe; "episode"; "--workload"; w.Workload.name; "--domains"; string_of_int w.Workload.domains;
      "--seed"; string_of_int seed; "--size"; Workload.string_of_size size; "--mode";
      Episode.string_of_mode mode;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let what =
    Printf.sprintf "%s episode of %s (seed %d, %d domains)" (Episode.string_of_mode mode)
      w.Workload.name seed w.Workload.domains
  in
  match wait () with
  | Unix.WEXITED 0 -> Episode.parse text
  | Unix.WEXITED n -> fail "%s exited with code %d" what n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "%s stopped by signal %d" what n

(* ---- cross-episode checks ---- *)

(* Episodes given the same inputs must agree on the simulated outcome:
   [runs] are (label, result) pairs whose fingerprints must be equal. *)
let same_outcome check runs =
  match runs with
  | [] -> ()
  | (label0, r0) :: rest ->
    List.iter
      (fun (label, r) ->
        if not (String.equal r.Episode.fingerprint r0.Episode.fingerprint) then
          fail "check %s failed: %s fingerprint %s differs from %s fingerprint %s" check label
            r.Episode.fingerprint label0 r0.Episode.fingerprint)
      rest

(* The checks across episodes of one workload and seed; returns the
   names of every check that ran, the episodes' own included.  The
   workload also runs at the smoke size on one and on two domains, which
   must agree; with a single trajectory, determinism is checked by a
   second one-domain run at that size. *)
let cross_check (w : Workload.t) ~seed ~episodes ~twin ~traced =
  let first = List.hd episodes in
  let tiny domains = spawn { w with Workload.domains } ~size:Workload.Tiny ~seed ~mode:Episode.Run in
  let tiny_one = tiny 1 in
  (match episodes with
  | [ _ ] -> same_outcome "determinism" [ ("tiny run 1", tiny_one); ("tiny run 2", tiny 1) ]
  | _ ->
    same_outcome "determinism"
      (List.mapi (fun i e -> (Printf.sprintf "trajectory %d" (i + 1), e)) episodes));
  same_outcome "k_invariance"
    [ ("tiny run on one domain", tiny_one); ("tiny run on two domains", tiny Workload.twin_domains) ];
  let pair check label other = same_outcome check [ ("trajectory 1", first); (label, other) ] in
  Option.iter (pair "k_invariance" "two-domain twin") twin;
  Option.iter (pair "trace_neutrality" "traced trajectory") traced;
  first.Episode.checks @ [ "determinism"; "k_invariance" ]
  @ if Option.is_some traced then [ "trace_neutrality" ] else []

(* ---- one workload, as the benchmark contract runs it ---- *)

type run = {
  workload : Workload.t;
  seed : int;
  size : Workload.size;
  setups : Episode.result list;  (** set-up-only children *)
  episodes : Episode.result list;  (** untraced trajectories *)
  twin : Episode.result option;  (** traced runs: the same inputs on two domains *)
  traced : Episode.result option;
  checks : string list;
}

(* Set-up is short next to a trajectory, so it is repeated in children
   of its own; [setup_s] is the median over these and every episode. *)
let setup_reps = 3

(* The traced trajectory and its untraced two-domain twin. *)
let traced_pair (w : Workload.t) ~size ~seed =
  let traced = spawn w ~size ~seed ~mode:Episode.Trace in
  let twin =
    spawn { w with Workload.domains = Workload.twin_domains } ~size ~seed ~mode:Episode.Run
  in
  (Some traced, Some twin)

let run (w : Workload.t) ~size ~seed ~seconds ~trace =
  let t0 = Clock.wall () in
  let setups = List.init setup_reps (fun _ -> spawn w ~size ~seed ~mode:Episode.Setup) in
  (* Whole trajectories until the next one would end past [seconds];
     always at least one. *)
  let rec more acc last =
    if acc <> [] && Clock.wall () -. t0 +. last > seconds then List.rev acc
    else begin
      let t = Clock.wall () in
      let e = spawn w ~size ~seed ~mode:Episode.Run in
      more (e :: acc) (Clock.wall () -. t)
    end
  in
  let episodes = more [] 0.0 in
  let traced, twin = if trace then traced_pair w ~size ~seed else (None, None) in
  let checks = cross_check w ~seed ~episodes ~twin ~traced in
  { workload = w; seed; size; setups; episodes; twin; traced; checks }

let values name results = List.map (fun r -> Episode.value r name) results

let median_of name results = Quantile.median (values name results)

(* End-to-end metric → per-sample values behind its median. *)
let end_to_end r =
  List.map
    (fun (name, _) ->
      let from = if String.equal name "setup_s" then r.setups @ r.episodes else r.episodes in
      (name, values name from))
    Catalog.end_to_end

(* Per-layer metrics: the traced episode's values, except for the [par]
   layer, which describes the two-domain twin, and the comparisons with
   the untraced episodes of the same run. *)
let per_layer r =
  match (r.traced, r.twin) with
  | Some t, Some twin ->
    let untraced_run_s = median_of "run_s" r.episodes in
    let speedup =
      Episode.value twin "engine.events_per_sec" /. median_of "engine.events_per_sec" r.episodes
    in
    Some
      (List.map
         (fun (name, _) ->
           match name with
           | "trace.overhead" -> (name, (Episode.value t "run_s" /. untraced_run_s) -. 1.0)
           | "par.speedup" -> (name, speedup)
           | "par.cpu_per_wall" -> (name, Episode.value twin name)
           | _ -> (name, Episode.value t name))
         Catalog.per_layer)
  | _ -> None

(* ---- rendering ---- *)

let unit_of name =
  match List.assoc_opt name (Catalog.end_to_end @ Catalog.per_layer) with
  | Some u -> u
  | None -> fail "metric %s has no unit" name

let json_number v =
  if not (Float.is_finite v) then fail "metric value %h is not finite" v;
  Printf.sprintf "%.17g" v

let json_metrics pairs =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) (unit_of name))
         pairs)
  ^ "}"

(* The contract's result line.  Every lookup and fetch ends with an
   outcome (resolved, or dropped by the simulated protocol) or the
   conservation check fails the run, so [failed] — operations the
   simulator left without an outcome — is zero in any printed result;
   protocol drops are outcomes and show in [success_fraction]. *)
let result_line r ~trace =
  let reported = match r.traced with Some t when trace -> [ t ] | Some _ | None -> r.episodes in
  let metrics =
    if trace then Option.get (per_layer r)
    else List.map (fun (name, vs) -> (name, Quantile.median vs)) (end_to_end r)
  in
  let attempted =
    List.fold_left (fun acc e -> acc + int_of_float (Episode.value e "operations")) 0 reported
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": %s}" attempted
    (json_metrics metrics)

let print_table r =
  Printf.printf "workload %s  seed %d  size %s  trajectories %d (+%d set-up only)\n"
    r.workload.Workload.name r.seed (Workload.string_of_size r.size) (List.length r.episodes)
    (List.length r.setups);
  Printf.printf "  %-30s %14s %14s %14s %4s  %s\n" "metric" "median" "q1" "q3" "n" "unit";
  let samples name =
    match r.episodes with
    | e :: _ -> (
      match List.assoc_opt name e.Episode.samples with
      | Some n -> Printf.sprintf "  (%d samples each)" n
      | None -> "")
    | [] -> ""
  in
  List.iter
    (fun (name, vs) ->
      let q1, q3 = Quantile.quartiles vs in
      Printf.printf "  %-30s %14.6g %14.6g %14.6g %4d  %s%s\n" name (Quantile.median vs) q1 q3
        (List.length vs) (unit_of name) (samples name))
    (end_to_end r);
  (match (per_layer r, r.traced) with
  | Some layers, Some t ->
    Printf.printf "  per layer (traced episode):\n";
    List.iter
      (fun (name, v) ->
        let samples =
          match List.assoc_opt name t.Episode.samples with
          | Some n -> Printf.sprintf "  (%d samples)" n
          | None -> ""
        in
        Printf.printf "  %-30s %14.6g  %s%s\n" name v (unit_of name) samples)
      layers
  | _ -> ());
  Printf.printf "  checks passed: %s\n%!" (String.concat " " r.checks)

(* The traced run's record: every per-layer metric with its unit and
   sample count, the end-to-end values, and the sampled trajectory. *)
let write_trace r path =
  match (per_layer r, r.traced) with
  | Some layers, Some t ->
    let t_wall0 = match t.Episode.trajectory with s :: _ -> s.Probes.wall | [] -> 0.0 in
    let metric (name, v) =
      Printf.sprintf "    %S: {\"value\": %s, \"unit\": %S%s}" name (json_number v) (unit_of name)
        (match List.assoc_opt name t.Episode.samples with
        | Some n -> Printf.sprintf ", \"samples\": %d" n
        | None -> "")
    in
    let sample (s : Probes.sample) =
      Printf.sprintf "    [%s, %s, %d, %d, %s]" (json_number (s.Probes.wall -. t_wall0))
        (json_number s.Probes.sim) s.Probes.pending s.Probes.events
        (json_number s.Probes.minor_words)
    in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n\
      \  \"workload\": %S,\n\
      \  \"seed\": %d,\n\
      \  \"size\": %S,\n\
      \  \"untraced_trajectories\": %d,\n\
      \  \"per_layer\": {\n\
       %s\n\
      \  },\n\
      \  \"end_to_end\": {\n\
       %s\n\
      \  },\n\
      \  \"observer_every_events\": %d,\n\
      \  \"trajectory_columns\":\n\
      \    [\"wall_s\", \"sim_s\", \"pending\", \"events\", \"minor_words\"],\n\
      \  \"trajectory\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      r.workload.Workload.name r.seed (Workload.string_of_size r.size) (List.length r.episodes)
      (String.concat ",\n" (List.map metric layers))
      (String.concat ",\n"
         (List.map (fun (name, vs) -> metric (name, Quantile.median vs)) (end_to_end r)))
      Probes.every
      (String.concat ",\n" (List.map sample t.Episode.trajectory));
    close_out oc
  | _ -> ()
