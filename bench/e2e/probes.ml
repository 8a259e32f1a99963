(* Trace-run instrumentation, all of it outside the library: an engine
   observer that samples the trajectory, and replay probes that time
   single public calls against the final warmed state of a run. *)

open Terradir
module Engine = Terradir_sim.Engine
module Splitmix = Terradir_util.Splitmix

(* ---- trajectory observer ---- *)

type sample = {
  wall : float;
  sim : float;
  pending : int;
  events : int;
  minor_words : float;
}

(* Observer cadence, in executed events.  At K >= 2 the engine fires at
   the first barrier after each multiple, so chunks are normalised by
   their actual event count. *)
let every = 2000

(* Pure observation: the hook reads the engine and the host, schedules
   nothing and draws no randomness, so the traced trajectory equals the
   untraced one (the driver checks their fingerprints).  Samples collect
   newest first. *)
let attach engine =
  let recorded = ref [] in
  Engine.add_observer engine ~every (fun () ->
      recorded :=
        {
          wall = Clock.wall ();
          sim = Engine.now engine;
          pending = Engine.pending engine;
          events = Engine.events_executed engine;
          minor_words = Gc.minor_words ();
        }
        :: !recorded);
  recorded

let samples recorded = List.rev !recorded

(* Wall microseconds per [every] events, one value per pair of
   consecutive samples. *)
let chunk_us samples =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      let ev = b.events - a.events in
      let acc =
        if ev > 0 then ((b.wall -. a.wall) *. 1e6 *. float_of_int every /. float_of_int ev) :: acc
        else acc
      in
      go acc rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] samples

(* ---- replay probes ---- *)

(* Median over [passes] of the per-call wall time of [f] applied to
   [0 .. calls-1], in nanoseconds. *)
let ns_per_call ~passes ~calls f =
  let per_pass =
    List.init passes (fun _ ->
        let t0 = Clock.wall () in
        for i = 0 to calls - 1 do
          f i
        done;
        (Clock.wall () -. t0) *. 1e9 /. float_of_int calls)
  in
  Quantile.median per_pass

let passes = 5

let decide_pairs = 20_000

(* [Routing.decide] on sampled (alive server, destination) pairs.  The
   call touches the chosen cache entry's recency, which is harmless
   after the trajectory has ended. *)
let routing_decide_ns cluster ~seed =
  let rng = Splitmix.create (seed lxor 0xdec1de) in
  let alive =
    List.filter
      (fun s -> s.Server.alive)
      (Array.to_list cluster.Cluster.servers)
    |> Array.of_list
  in
  let nodes = Terradir_namespace.Tree.size cluster.Cluster.tree in
  let srv = Array.init decide_pairs (fun _ -> alive.(Splitmix.int rng (Array.length alive))) in
  let dst = Array.init decide_pairs (fun _ -> Splitmix.int rng nodes) in
  let ns =
    ns_per_call ~passes ~calls:decide_pairs (fun i ->
        ignore (Routing.decide srv.(i) ~dst:dst.(i) : Routing.decision))
  in
  (ns, passes * decide_pairs)

let merge_pairs = 20_000

(* [Node_map.merge] on sampled pairs of real maps: the hosted-node maps
   of the final state (every server owns nodes, so there are always
   some). *)
let node_map_merge_ns cluster ~seed =
  let maps =
    Array.to_list cluster.Cluster.servers
    |> List.concat_map (fun s ->
           List.filter_map
             (fun node -> Option.map (fun h -> h.Server.h_map) (Server.find_hosted s node))
             (Server.hosted_nodes s))
    |> Array.of_list
  in
  let n = Array.length maps in
  let rng = Splitmix.create (seed lxor 0x3e63e) in
  let a = Array.init merge_pairs (fun _ -> maps.(Splitmix.int rng n)) in
  let b = Array.init merge_pairs (fun _ -> maps.(Splitmix.int rng n)) in
  let max = cluster.Cluster.config.Config.r_map in
  let scratch = Node_map.scratch () in
  let ns =
    ns_per_call ~passes ~calls:merge_pairs (fun i ->
        ignore (Node_map.merge ~scratch ~max rng a.(i) b.(i) : Node_map.t))
  in
  (ns, passes * merge_pairs)

let hold_steps = 200_000

(* The classic hold model on a fresh default engine: [depth] pending
   events, each executed event schedules one replacement at an
   exponential delay.  Measures one [Engine.schedule] plus one
   [Engine.step] at the queue depth the workload ran at. *)
let engine_hold_ns ~depth ~seed =
  let depth = max 1 depth in
  let rng = Splitmix.create (seed lxor 0x401d) in
  let delays = Array.init 4096 (fun _ -> Splitmix.exponential rng 1.0) in
  let e = Engine.create () in
  let k = ref 0 in
  let rec ev () =
    k := (!k + 1) land 4095;
    Engine.schedule e ~delay:delays.(!k) ev
  in
  for i = 0 to depth - 1 do
    Engine.schedule e ~delay:delays.(i land 4095) ev
  done;
  let ns = ns_per_call ~passes ~calls:hold_steps (fun _ -> ignore (Engine.step e : bool)) in
  (ns, passes * hold_steps)

(* Heap footprint of the per-server state, amortised per server.  The
   walk also counts what servers share (the tree, the config) once. *)
let bytes_per_server cluster =
  let words = Obj.reachable_words (Obj.repr cluster.Cluster.servers) in
  float_of_int words *. float_of_int (Sys.word_size / 8)
  /. float_of_int (Array.length cluster.Cluster.servers)
