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

let tables r =
  [
    {
      Tablefmt.name = "table1_state";
      header = [ "node_state"; "name"; "map"; "data"; "meta"; "context" ];
      rows =
        List.map (fun (kind, cols) -> kind :: List.map (fun b -> if b then "x" else "") cols) canonical;
    };
    {
      Tablefmt.name = "table1_verified";
      header = [ "kinds_observed"; "verified" ];
      rows = [ [ String.concat ";" r.kinds_seen; string_of_bool r.verified ] ];
    };
  ]
