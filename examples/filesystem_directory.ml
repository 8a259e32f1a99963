(* A wide-area distributed file-system directory — the paper's driving use
   case (TerraDir namespaces are "much like file names in Unix
   file-systems", and the evaluation's N_C namespace is a Coda file
   server's tree).

   We serve a ~20k-node file-system namespace from 96 peers, run Zipf
   lookups over it (file popularity is Zipf — Breslau et al.), and compare
   caching-only (BC) against the full adaptive protocol (BCR) on the same
   workload: latency, hop count, drops, and where the replicas went.

   Run with: dune exec examples/filesystem_directory.exe *)

open Terradir_util
open Terradir_namespace
open Terradir
open Terradir_workload

let describe_run label features =
  let tree = Build.coda_like ~target:20_000 () in
  let config = { Config.default with Config.num_servers = 96; features; seed = 31 } in
  let cluster = Cluster.create ~config ~tree () in
  let phases =
    Stream.unif ~rate:500.0 ~duration:20.0
    @ [ { Stream.duration = 60.0; rate = 500.0; dist = Stream.Zipf { alpha = 1.0; reshuffle = true } } ]
  in
  Scenario.run cluster ~phases ~seed:37;
  let m = Cluster.metrics cluster in
  Printf.printf "%-4s  latency %5.0f ms   hops %4.2f   drop %6.4f   replicas %5d   shortcuts %d\n"
    label
    (1000.0 *. Stats.mean m.Metrics.latency)
    (Stats.mean m.Metrics.hops) (Metrics.drop_fraction m) m.Metrics.replicas_created
    m.Metrics.shortcut_forwards;
  cluster

let () =
  let tree_info = Build.describe (Build.coda_like ~target:20_000 ()) in
  Printf.printf "namespace: %s\n\n" tree_info;

  let _bc = describe_run "BC" Config.bc in
  let bcr = describe_run "BCR" Config.bcr in

  (* Where did the adaptive protocol put the state?  Top of the namespace
     (hierarchical bottleneck) plus the Zipf head (hot files). *)
  print_endline "\nreplicas created per node, by directory depth (BCR):";
  let per_level = Cluster.replicas_per_level bcr `Created in
  Array.iteri (fun d avg -> if avg > 0.005 then Printf.printf "  depth %2d: %6.2f\n" d avg) per_level;

  (* Resolve one path end-to-end through the public API. *)
  let tree = bcr.Cluster.tree in
  let deep =
    Tree.leaves tree
    |> List.fold_left (fun acc v -> if Tree.depth tree v > Tree.depth tree acc then v else acc) 0
  in
  Printf.printf "\ndeepest file: %s (depth %d), owned by server %d, hosted by %d server(s)\n"
    (Tree.name_string tree deep) (Tree.depth tree deep)
    bcr.Cluster.owner_of.(deep)
    (Array.to_list bcr.Cluster.servers
    |> List.filter (fun s -> Server.hosts s deep)
    |> List.length);

  (* Directory listing as a complex query (§2.1): glob one level under the
     deepest file's grandparent, then fetch the file's data (step two). *)
  let dir = Tree.ancestor_at_depth tree deep (Tree.depth tree deep - 1) in
  let listing = ref None in
  Search.glob bcr ~src:0
    ~pattern:(Tree.name_string tree dir ^ "/*")
    ~on_done:(fun r -> listing := Some r);
  let fetched = ref None in
  Cluster.fetch bcr ~client:0 ~node:deep ~on_done:(fun o -> fetched := Some o);
  Cluster.run_until bcr (Cluster.now bcr +. 30.0);
  (match !listing with
  | Some r ->
    Printf.printf "\nls %s -> %d entries (%d lookups, %.0f ms)\n"
      (Tree.name_string tree dir) (List.length r.Search.matched) r.Search.lookups_issued
      (1000.0 *. r.Search.latency)
  | None -> print_endline "listing did not complete");
  (match !fetched with
  | Some (Types.Fetched { latency }) ->
    Printf.printf "cat %s -> data fetched in %.0f ms\n" (Tree.name_string tree deep)
      (1000.0 *. latency)
  | Some Types.Fetch_failed -> print_endline "fetch failed"
  | None -> print_endline "fetch did not complete");

  (* And the route a lookup for that file would take right now (Fig. 1). *)
  print_newline ();
  print_string (Trace.to_string bcr (Trace.route bcr ~src:7 ~dst:deep));
  Cluster.check_invariants bcr
