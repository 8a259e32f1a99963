(* Tests for the client layers above raw lookups: completion callbacks,
   two-step data retrieval (§2.1), meta-data versioning/staleness, and
   hierarchical search decomposition. *)

open Terradir_util
open Terradir_namespace
open Terradir
open Terradir_workload

let mk_cluster ?(servers = 16) ?(levels = 5) ?(data_copies = 1) ?(seed = 3) () =
  let tree = Build.balanced ~arity:2 ~levels in
  let config = { Config.default with Config.num_servers = servers; data_copies; seed } in
  Cluster.create ~config ~tree ()

(* ------------------------------------------------------------------ *)
(* Completion callbacks                                                *)
(* ------------------------------------------------------------------ *)

let test_on_complete_resolved () =
  let cluster = mk_cluster () in
  let got = ref None in
  let dst = 19 in
  Cluster.inject cluster ~src:0 ~dst ~on_complete:(fun o -> got := Some o);
  Cluster.run_until cluster 5.0;
  match !got with
  | Some (Types.Resolved r) ->
    Alcotest.(check bool) "positive latency" true (r.latency > 0.0);
    Alcotest.(check bool) "hops recorded" true (r.hops >= 0);
    Alcotest.(check bool) "result map names a host" true
      (Node_map.mem r.map cluster.Cluster.owner_of.(dst));
    Alcotest.(check int) "meta version initial" 0 r.meta_version
  | Some (Types.Dropped _) -> Alcotest.fail "unexpected drop"
  | None -> Alcotest.fail "callback never fired"

let test_on_complete_dropped () =
  let cluster = mk_cluster ~servers:8 () in
  (* kill the owner of a leaf; without replication warm-up its nodes are
     unreachable *)
  let tree = cluster.Cluster.tree in
  let dst = List.hd (Tree.leaves tree) in
  let owner = cluster.Cluster.owner_of.(dst) in
  Cluster.kill cluster owner;
  let got = ref None in
  let src = (owner + 1) mod 8 in
  Cluster.inject cluster ~src ~dst ~on_complete:(fun o -> got := Some o);
  Cluster.run_until cluster 30.0;
  match !got with
  | Some (Types.Dropped _) -> ()
  | Some (Types.Resolved _) -> Alcotest.fail "cannot resolve a dead owner's leaf"
  | None -> Alcotest.fail "callback never fired"

let test_callback_fires_exactly_once () =
  let cluster = mk_cluster () in
  let count = ref 0 in
  for dst = 1 to 20 do
    Cluster.inject cluster ~src:(dst mod 16) ~dst ~on_complete:(fun _ -> incr count)
  done;
  Cluster.run_until cluster 10.0;
  Alcotest.(check int) "one callback per query" 20 !count

(* ------------------------------------------------------------------ *)
(* Data retrieval                                                      *)
(* ------------------------------------------------------------------ *)

let test_fetch_basic () =
  let cluster = mk_cluster () in
  let got = ref None in
  Cluster.fetch cluster ~client:1 ~node:9 ~on_done:(fun o -> got := Some o);
  Cluster.run_until cluster 5.0;
  (match !got with
  | Some (Types.Fetched { latency }) ->
    (* request + reply: at least two network hops *)
    Alcotest.(check bool) "latency >= 2 network hops" true (latency >= 0.05)
  | Some Types.Fetch_failed -> Alcotest.fail "fetch failed on healthy cluster"
  | None -> Alcotest.fail "no outcome");
  let m = Cluster.metrics cluster in
  Alcotest.(check int) "counted" 1 m.Metrics.data_requests;
  Alcotest.(check int) "completed" 1 m.Metrics.data_completed;
  Alcotest.(check int) "no drops" 0 m.Metrics.data_dropped

let test_fetch_failover_to_data_copy () =
  let cluster = mk_cluster ~data_copies:3 () in
  let node = 9 in
  let holders = cluster.Cluster.data_holders.(node) in
  Alcotest.(check int) "three holders" 3 (Array.length holders);
  Alcotest.(check int) "owner is first holder" cluster.Cluster.owner_of.(node) holders.(0);
  (* kill all but the last holder: the fetch must fail over *)
  Array.iteri (fun i h -> if i < Array.length holders - 1 then Cluster.kill cluster h) holders;
  let got = ref None in
  let live = holders.(Array.length holders - 1) in
  let client = (live + 1) mod 16 in
  let client = if Array.exists (fun h -> h = client) holders then (client + 1) mod 16 else client in
  Cluster.fetch cluster ~client ~node ~on_done:(fun o -> got := Some o);
  Cluster.run_until cluster 10.0;
  match !got with
  | Some (Types.Fetched _) -> ()
  | Some Types.Fetch_failed -> Alcotest.fail "failover should reach the live copy"
  | None -> Alcotest.fail "no outcome"

let test_fetch_fails_when_all_holders_dead () =
  let cluster = mk_cluster ~data_copies:2 () in
  let node = 9 in
  Array.iter (Cluster.kill cluster) cluster.Cluster.data_holders.(node);
  let got = ref None in
  let client =
    let rec free c =
      if Array.exists (fun h -> h = c) cluster.Cluster.data_holders.(node) then free (c + 1) else c
    in
    free 0
  in
  Cluster.fetch cluster ~client ~node ~on_done:(fun o -> got := Some o);
  Cluster.run_until cluster 10.0;
  (match !got with
  | Some Types.Fetch_failed -> ()
  | Some (Types.Fetched _) -> Alcotest.fail "all holders are dead"
  | None -> Alcotest.fail "no outcome");
  Alcotest.(check int) "drop counted" 1 (Cluster.metrics cluster).Metrics.data_dropped

let test_fetch_validation () =
  let cluster = mk_cluster () in
  Alcotest.check_raises "bad client" (Invalid_argument "Cluster.fetch: bad client") (fun () ->
      Cluster.fetch cluster ~client:(-1) ~node:0);
  Alcotest.check_raises "bad node" (Invalid_argument "Cluster.fetch: bad node") (fun () ->
      Cluster.fetch cluster ~client:0 ~node:10_000)

let test_scenario_fetch_probability () =
  let cluster = mk_cluster ~servers:12 ~levels:6 () in
  Scenario.run cluster
    ~phases:(Stream.unif ~rate:100.0 ~duration:20.0)
    ~seed:7 ~fetch_probability:0.3;
  let m = Cluster.metrics cluster in
  let expected = float_of_int m.Metrics.resolved *. 0.3 in
  Alcotest.(check bool)
    (Printf.sprintf "fetches %d ~ 30%% of %d resolved" m.Metrics.data_requests m.Metrics.resolved)
    true
    (abs_float (float_of_int m.Metrics.data_requests -. expected) < 0.25 *. expected);
  Alcotest.(check bool) "most fetches complete" true
    (m.Metrics.data_completed > (9 * m.Metrics.data_requests) / 10);
  Alcotest.(check bool) "fetch latency measured" true
    (Stats.mean m.Metrics.data_latency > 0.0)

(* ------------------------------------------------------------------ *)
(* Meta-data versioning                                                *)
(* ------------------------------------------------------------------ *)

let test_update_meta () =
  let cluster = mk_cluster () in
  Alcotest.(check int) "initial" 0 (Cluster.owner_meta_version cluster 9);
  Alcotest.(check int) "bump" 1 (Cluster.update_meta cluster 9);
  Alcotest.(check int) "bump again" 2 (Cluster.update_meta cluster 9);
  Alcotest.(check int) "visible" 2 (Cluster.owner_meta_version cluster 9)

let test_meta_staleness_observed () =
  (* Warm a cluster so replicas of a hot node exist, then bump the owner's
     meta version: lookups resolving at stale replicas must register lag. *)
  let cluster = mk_cluster ~servers:12 ~levels:5 () in
  Scenario.run cluster
    ~phases:
      [ { Stream.duration = 20.0; rate = 300.0; dist = Stream.Zipf { alpha = 1.3; reshuffle = true } } ]
    ~seed:9;
  Tree.iter cluster.Cluster.tree (fun node -> ignore (Cluster.update_meta cluster node));
  let lag_before = Stats.count (Cluster.metrics cluster).Metrics.meta_lag in
  Scenario.run cluster ~phases:(Stream.unif ~rate:200.0 ~duration:10.0) ~seed:10;
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) "lag samples collected" true
    (Stats.count m.Metrics.meta_lag > lag_before);
  (* Some lookups resolved at replicas still carrying version 0 *)
  Alcotest.(check bool) "staleness observed" true (Stats.max_value m.Metrics.meta_lag >= 1.0)

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let test_search_subtree () =
  let cluster = mk_cluster ~servers:12 ~levels:5 () in
  let tree = cluster.Cluster.tree in
  let root = 1 (* depth-1 subtree in a levels-5 tree: 2^5-1 = 31 nodes *) in
  let got = ref None in
  Search.subtree cluster ~src:0 ~root ~on_done:(fun r -> got := Some r);
  Cluster.run_until cluster 30.0;
  match !got with
  | Some r ->
    Alcotest.(check int) "whole subtree enumerated" 31 r.Search.lookups_issued;
    Alcotest.(check int) "all resolved" 31 (List.length r.Search.matched);
    Alcotest.(check int) "no drops" 0 r.Search.lookups_dropped;
    Alcotest.(check bool) "latency positive" true (r.Search.latency > 0.0);
    List.iter
      (fun nr ->
        Alcotest.(check bool) "matched node in subtree" true
          (Tree.is_ancestor tree root nr.Search.sr_node))
      r.Search.matched
  | None -> Alcotest.fail "search never completed"

let test_search_filter_and_cap () =
  let cluster = mk_cluster ~servers:12 ~levels:5 () in
  let got = ref None in
  Search.subtree cluster ~src:0 ~root:0 ~max_nodes:8
    ~filter:(fun node -> node mod 2 = 0)
    ~on_done:(fun r -> got := Some r);
  Cluster.run_until cluster 30.0;
  match !got with
  | Some r ->
    Alcotest.(check int) "capped enumeration" 8 r.Search.lookups_issued;
    Alcotest.(check bool) "filter applied" true
      (List.for_all (fun nr -> nr.Search.sr_node mod 2 = 0) r.Search.matched)
  | None -> Alcotest.fail "search never completed"

let test_search_glob () =
  (* A named namespace so glob patterns read naturally. *)
  let tree =
    Build.of_paths
      [
        "/u/public/people/faculty/John";
        "/u/public/people/faculty/Steve";
        "/u/public/people/students/Ann";
        "/u/private/people/students/Lisa";
      ]
  in
  let config = { Config.default with Config.num_servers = 8; seed = 5 } in
  let cluster = Cluster.create ~config ~tree () in
  let shallow = ref None and deep = ref None in
  Search.glob cluster ~src:0 ~pattern:"/u/public/people/*" ~on_done:(fun r -> shallow := Some r);
  Search.glob cluster ~src:1 ~pattern:"/u/public/**" ~on_done:(fun r -> deep := Some r);
  Cluster.run_until cluster 30.0;
  (match !shallow with
  | Some r ->
    (* the root plus its two children: faculty, students *)
    Alcotest.(check int) "one-level glob" 3 (List.length r.Search.matched)
  | None -> Alcotest.fail "shallow glob incomplete");
  (match !deep with
  | Some r ->
    (* /u/public subtree: public, people, faculty, students, John, Steve, Ann *)
    Alcotest.(check int) "recursive glob" 7 (List.length r.Search.matched)
  | None -> Alcotest.fail "deep glob incomplete");
  Alcotest.check_raises "bad pattern" (Invalid_argument "Search.glob: pattern must end in /* or /**")
    (fun () -> Search.glob cluster ~src:0 ~pattern:"/u/public" ~on_done:ignore);
  Alcotest.check_raises "unknown prefix" (Invalid_argument "Search.glob: prefix names no node")
    (fun () -> Search.glob cluster ~src:0 ~pattern:"/nope/*" ~on_done:ignore)

let test_search_validation () =
  let cluster = mk_cluster () in
  Alcotest.check_raises "bad root" (Invalid_argument "Search.subtree: bad root") (fun () ->
      Search.subtree cluster ~src:0 ~root:9999 ~on_done:ignore);
  Alcotest.check_raises "bad max" (Invalid_argument "Search.subtree: max_nodes must be >= 1")
    (fun () -> Search.subtree cluster ~src:0 ~root:0 ~max_nodes:0 ~on_done:ignore)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_resolves_with_progress () =
  let cluster = mk_cluster () in
  let dst = 27 in
  let src = (cluster.Cluster.owner_of.(dst) + 1) mod 16 in
  let t = Trace.route cluster ~src ~dst in
  (match t.Trace.outcome with
  | `Resolved _ -> ()
  | `Dead_end _ | `Diverged -> Alcotest.fail "pristine cluster must resolve");
  (* distances strictly decrease step over step *)
  let rec decreasing = function
    | (a : Trace.step) :: (b : Trace.step) :: rest ->
      Alcotest.(check bool) "monotone" true (b.Trace.distance_left < a.Trace.distance_left);
      decreasing (b :: rest)
    | _ -> ()
  in
  decreasing t.Trace.steps;
  (* the final step lands on a host of dst *)
  (match List.rev t.Trace.steps with
  | last :: _ ->
    Alcotest.(check int) "last hop targets dst" dst last.Trace.via_node;
    Alcotest.(check bool) "receiver hosts dst" true
      (Server.hosts (Cluster.server cluster last.Trace.to_server) dst)
  | [] -> ());
  Alcotest.(check bool) "rendering non-empty" true (String.length (Trace.to_string cluster t) > 0)

let test_trace_self_resolution () =
  let cluster = mk_cluster () in
  let dst = 5 in
  let owner = cluster.Cluster.owner_of.(dst) in
  let t = Trace.route cluster ~src:owner ~dst in
  Alcotest.(check int) "no steps" 0 (List.length t.Trace.steps);
  match t.Trace.outcome with
  | `Resolved sid -> Alcotest.(check int) "resolved at owner" owner sid
  | `Dead_end _ | `Diverged -> Alcotest.fail "owner resolves locally"

let test_trace_validation () =
  let cluster = mk_cluster () in
  Alcotest.check_raises "bad src" (Invalid_argument "Trace.route: bad source server") (fun () ->
      ignore (Trace.route cluster ~src:99 ~dst:0));
  Alcotest.check_raises "bad dst" (Invalid_argument "Trace.route: bad destination") (fun () ->
      ignore (Trace.route cluster ~src:0 ~dst:(-1)))

let () =
  Alcotest.run "terradir_layers"
    [
      ( "callbacks",
        [
          Alcotest.test_case "resolved" `Quick test_on_complete_resolved;
          Alcotest.test_case "dropped" `Quick test_on_complete_dropped;
          Alcotest.test_case "exactly once" `Quick test_callback_fires_exactly_once;
        ] );
      ( "retrieval",
        [
          Alcotest.test_case "basic fetch" `Quick test_fetch_basic;
          Alcotest.test_case "failover" `Quick test_fetch_failover_to_data_copy;
          Alcotest.test_case "all holders dead" `Quick test_fetch_fails_when_all_holders_dead;
          Alcotest.test_case "validation" `Quick test_fetch_validation;
          Alcotest.test_case "scenario fetch probability" `Slow test_scenario_fetch_probability;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "update meta" `Quick test_update_meta;
          Alcotest.test_case "staleness observed" `Slow test_meta_staleness_observed;
        ] );
      ( "search",
        [
          Alcotest.test_case "subtree" `Quick test_search_subtree;
          Alcotest.test_case "filter and cap" `Quick test_search_filter_and_cap;
          Alcotest.test_case "glob" `Quick test_search_glob;
          Alcotest.test_case "validation" `Quick test_search_validation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "resolves with progress" `Quick test_trace_resolves_with_progress;
          Alcotest.test_case "self resolution" `Quick test_trace_self_resolution;
          Alcotest.test_case "validation" `Quick test_trace_validation;
        ] );
    ]
