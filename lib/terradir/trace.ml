open Terradir_namespace
open Types

type hop = Via_neighbor_or_cache | Via_digest

type step = {
  at_server : server_id;
  hosted_here : node_id option;
  via_node : node_id;
  to_server : server_id;
  hop : hop;
  distance_left : int;
}

type t = {
  src : server_id;
  dst : node_id;
  steps : step list;
  outcome : [ `Resolved of server_id | `Dead_end of server_id | `Diverged ];
}

let route cluster ~src ~dst =
  let tree = cluster.Cluster.tree in
  if src < 0 || src >= Array.length cluster.Cluster.servers then
    invalid_arg "Trace.route: bad source server";
  if dst < 0 || dst >= Tree.size tree then invalid_arg "Trace.route: bad destination";
  let budget = cluster.Cluster.hop_budget in
  (* Same monotone shortcut bound a live query would carry. *)
  let best_dist = ref max_int in
  let rec walk sid steps hops =
    let s = Cluster.server cluster sid in
    let hosted_here = if Server.hosts s dst then Some dst else None in
    if hops > budget then { src; dst; steps = List.rev steps; outcome = `Diverged }
    else
      match Routing.decide ~shortcut_bound:!best_dist s ~dst with
      | Routing.Resolve -> { src; dst; steps = List.rev steps; outcome = `Resolved sid }
      | Routing.Dead_end -> { src; dst; steps = List.rev steps; outcome = `Dead_end sid }
      | Routing.Forward { via_node; to_server; shortcut } ->
        best_dist := min !best_dist (Tree.distance tree via_node dst);
        let step =
          {
            at_server = sid;
            hosted_here;
            via_node;
            to_server;
            hop = (if shortcut then Via_digest else Via_neighbor_or_cache);
            distance_left = Tree.distance tree via_node dst;
          }
        in
        walk to_server (step :: steps) (hops + 1)
  in
  walk src [] 0

let pp fmt cluster t =
  let tree = cluster.Cluster.tree in
  let name v = Tree.name_string tree v in
  Format.fprintf fmt "route: server %d -> %s (node %d)@." t.src (name t.dst) t.dst;
  List.iteri
    (fun i step ->
      Format.fprintf fmt "  step %c: server %-4d via %-30s -> server %-4d (%s, %d to go)@."
        (Char.chr (Char.code 'A' + (i mod 26)))
        step.at_server (name step.via_node) step.to_server
        (match step.hop with
        | Via_digest -> "digest shortcut"
        | Via_neighbor_or_cache -> "neighbor/cache")
        step.distance_left)
    t.steps;
  match t.outcome with
  | `Resolved sid -> Format.fprintf fmt "  resolved at server %d (%d forwarding steps)@." sid (List.length t.steps)
  | `Dead_end sid -> Format.fprintf fmt "  DEAD END at server %d@." sid
  | `Diverged -> Format.fprintf fmt "  DIVERGED (stale state defeated the hop budget)@."

let to_string cluster t = Format.asprintf "%a" (fun fmt -> pp fmt cluster) t
