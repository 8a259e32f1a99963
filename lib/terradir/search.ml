open Terradir_namespace
open Types

type node_result = {
  sr_node : node_id;
  sr_map : Node_map.t;
  sr_meta_version : int;
  sr_hops : int;
}

type result = {
  root : node_id;
  matched : node_result list;
  lookups_issued : int;
  lookups_dropped : int;
  latency : float;
}

(* Breadth-first subtree enumeration, capped. *)
let enumerate tree root ~max_nodes =
  let acc = ref [] and count = ref 0 in
  let queue = Queue.create () in
  Queue.add root queue;
  while (not (Queue.is_empty queue)) && !count < max_nodes do
    let v = Queue.pop queue in
    acc := v :: !acc;
    incr count;
    Array.iter (fun c -> Queue.add c queue) (Tree.children tree v)
  done;
  List.rev !acc

(* Gap between a search's injected lookups: above the mean service time,
   so a search streams its decomposed lookups as a real client would
   rather than trampling its own request queue. *)
let pacing = 0.025

let subtree ?(max_nodes = 256) ?(filter = fun _ -> true) cluster ~src ~root ~on_done =
  if max_nodes < 1 then invalid_arg "Search.subtree: max_nodes must be >= 1";
  let tree = cluster.Cluster.tree in
  if root < 0 || root >= Tree.size tree then invalid_arg "Search.subtree: bad root";
  let engine = cluster.Cluster.engine in
  let targets = enumerate tree root ~max_nodes in
  let started = Terradir_sim.Engine.now engine in
  let pending = ref (List.length targets) in
  let matched = ref [] and dropped = ref 0 in
  let complete node outcome =
    (match outcome with
    | Resolved r ->
      if filter node then
        matched :=
          { sr_node = node; sr_map = r.map; sr_meta_version = r.meta_version; sr_hops = r.hops }
          :: !matched
    | Dropped _ -> incr dropped);
    decr pending;
    if !pending = 0 then
      on_done
        {
          root;
          matched = List.rev !matched;
          lookups_issued = List.length targets;
          lookups_dropped = !dropped;
          latency = Terradir_sim.Engine.now engine -. started;
        }
  in
  List.iteri
    (fun i node ->
      Terradir_sim.Engine.schedule engine ~delay:(float_of_int i *. pacing) (fun () ->
          Cluster.inject cluster ~src ~dst:node ~on_complete:(complete node)))
    targets

let glob ?max_nodes cluster ~src ~pattern ~on_done =
  let deep, prefix =
    match (Filename.check_suffix pattern "/**", Filename.check_suffix pattern "/*") with
    | true, _ -> (true, Filename.chop_suffix pattern "/**")
    | false, true -> (false, Filename.chop_suffix pattern "/*")
    | false, false -> invalid_arg "Search.glob: pattern must end in /* or /**"
  in
  let tree = cluster.Cluster.tree in
  match Tree.find_string tree (if prefix = "" then "/" else prefix) with
  | None -> invalid_arg "Search.glob: prefix names no node"
  | Some root ->
    let filter =
      if deep then fun _ -> true
      else fun node -> node = root || Tree.parent tree node = Some root
    in
    let max_nodes =
      match max_nodes with
      | Some m -> Some m
      | None when not deep ->
        (* one level: the enumeration itself can stay shallow *)
        Some (1 + Tree.num_children tree root)
      | None -> None
    in
    subtree ?max_nodes ~filter cluster ~src ~root ~on_done
