(* Tests for the minimizing routing procedure, digest shortcuts and map
   pruning (§2.2, §3.6). *)

open Terradir_util
open Terradir_namespace
open Terradir

let tree = Build.balanced ~arity:2 ~levels:4 (* 31 nodes, ids in BFS order *)

(* Deeper than the shortcut's 6-step walk, so both bounds get exercised. *)
let shortcut_tree = Build.balanced ~arity:2 ~levels:9

let config =
  { Config.default with Config.num_servers = 16; cache_slots = 8; seed = 11 }

(* A pristine cluster: every server has exactly its owned nodes and accurate
   neighbor contexts — routing should behave like the paper's §2.2 example. *)
let pristine () = Cluster.create ~monitor:false ~config ~tree ()

let test_resolve_when_hosted () =
  let cluster = pristine () in
  let dst = 9 in
  let owner = cluster.Cluster.owner_of.(dst) in
  match Routing.decide (Cluster.server cluster owner) ~dst with
  | Routing.Resolve -> ()
  | Routing.Forward _ | Routing.Dead_end -> Alcotest.fail "owner must resolve its own node"

let test_forward_makes_progress () =
  let cluster = pristine () in
  (* From every server, toward every destination, each forwarding decision
     targets a node strictly closer than the server's closest hosted node. *)
  Array.iter
    (fun s ->
      if Server.hosted_nodes s <> [] then
        Tree.iter tree (fun dst ->
            match Routing.decide s ~dst with
            | Routing.Resolve -> Alcotest.(check bool) "resolve iff hosted" true (Server.hosts s dst)
            | Routing.Dead_end -> Alcotest.fail "pristine cluster has no dead ends"
            | Routing.Forward { via_node; to_server; shortcut = _ } ->
              let closest_hosted =
                List.fold_left
                  (fun acc n -> min acc (Tree.distance tree n dst))
                  max_int (Server.hosted_nodes s)
              in
              Alcotest.(check bool) "strict progress" true
                (Tree.distance tree via_node dst < closest_hosted);
              (* with pristine maps the chosen server really hosts via_node *)
              Alcotest.(check bool) "map accurate" true
                (Server.hosts (Cluster.server cluster to_server) via_node)))
    cluster.Cluster.servers

let test_full_route_terminates () =
  let cluster = pristine () in
  (* Walk the forwarding chain by hand (no queueing): from every server to
     every destination, the chain reaches a host of dst within the
     namespace diameter. *)
  let diameter = 2 * Tree.max_depth tree in
  Array.iter
    (fun (s0 : Server.t) ->
      Tree.iter tree (fun dst ->
          let rec walk (s : Server.t) hops =
            if hops > diameter then Alcotest.fail "route exceeded diameter"
            else
              match Routing.decide s ~dst with
              | Routing.Resolve -> hops
              | Routing.Dead_end -> Alcotest.fail "dead end in pristine cluster"
              | Routing.Forward { to_server; _ } -> walk (Cluster.server cluster to_server) (hops + 1)
          in
          ignore (walk s0 0)))
    cluster.Cluster.servers

let test_cache_shortcut_used () =
  let cluster = pristine () in
  let dst = 30 (* deep leaf *) in
  let owner = cluster.Cluster.owner_of.(dst) in
  (* pick a server whose hosted nodes are all far from dst *)
  let s =
    Array.to_list cluster.Cluster.servers
    |> List.find (fun s ->
           (not (Server.hosts s dst))
           && List.for_all (fun n -> Tree.distance tree n dst > 3) (Server.hosted_nodes s)
           && Server.hosted_nodes s <> [])
  in
  Cache.insert s.Server.cache ~node:dst
    (Node_map.singleton ~is_owner:true ~server:owner ~stamp:1.0 ());
  match Routing.decide s ~dst with
  | Routing.Forward { via_node; to_server; shortcut } ->
    Alcotest.(check int) "cache pointer chosen" dst via_node;
    Alcotest.(check int) "goes to cached host" owner to_server;
    Alcotest.(check bool) "cache hop is not a digest shortcut" false shortcut
  | Routing.Resolve | Routing.Dead_end -> Alcotest.fail "expected cached forward"

let test_digest_shortcut () =
  let cluster = pristine () in
  let dst = 23 in
  let s =
    Array.to_list cluster.Cluster.servers
    |> List.find (fun s ->
           (not (Server.hosts s dst))
           && List.for_all (fun n -> Tree.distance tree n dst > 2) (Server.hosted_nodes s)
           && Server.hosted_nodes s <> [])
  in
  (* Server 99 does not exist in maps, but a digest says it hosts dst. *)
  let holder = (s.Server.id + 1) mod 16 in
  Digest_store.record_remote s.Server.digests ~server:holder ~version:1
    (Terradir_bloom.Bloom.of_list ~bits_per_element:16 ~hashes:10 [ dst ]);
  match Routing.decide s ~dst with
  | Routing.Forward { via_node; to_server; shortcut } ->
    Alcotest.(check bool) "digest shortcut taken" true shortcut;
    Alcotest.(check int) "jumps to digest holder" holder to_server;
    Alcotest.(check int) "on behalf of dst" dst via_node
  | Routing.Resolve | Routing.Dead_end -> Alcotest.fail "expected shortcut"

let test_digest_shortcut_disabled_by_feature () =
  let cfg = { config with Config.features = Config.bc } in
  let cluster = Cluster.create ~monitor:false ~config:cfg ~tree () in
  let dst = 23 in
  let s =
    Array.to_list cluster.Cluster.servers
    |> List.find (fun s -> (not (Server.hosts s dst)) && Server.hosted_nodes s <> [])
  in
  Digest_store.record_remote s.Server.digests ~server:((s.Server.id + 1) mod 16) ~version:1
    (Terradir_bloom.Bloom.of_list [ dst ]);
  match Routing.decide s ~dst with
  | Routing.Forward { shortcut; _ } -> Alcotest.(check bool) "no shortcut in BC" false shortcut
  | Routing.Resolve | Routing.Dead_end -> Alcotest.fail "expected conventional forward"

let test_shortcut_only_when_strictly_better () =
  let cluster = pristine () in
  (* A digest claiming a node the server can already reach at distance 0 via
     its own knowledge must not be used: better_than bounds the walk. *)
  let s = Array.get cluster.Cluster.servers 0 in
  match Server.hosted_nodes s with
  | [] -> ()
  | hosted :: _ ->
    (* dst = a neighbor of a hosted node: conventional candidate at distance 0. *)
    let dst = List.hd (Tree.neighbors tree hosted) in
    if not (Server.hosts s dst) then begin
      Digest_store.record_remote s.Server.digests ~server:7 ~version:1
        (Terradir_bloom.Bloom.of_list [ dst ]);
      match Routing.decide s ~dst with
      | Routing.Forward { shortcut; _ } ->
        Alcotest.(check bool) "no shortcut when not strictly closer" false shortcut
      | Routing.Resolve | Routing.Dead_end -> Alcotest.fail "expected forward"
    end

let test_dead_end_without_knowledge () =
  let s = Server.create ~id:0 ~config ~tree ~rng:(Splitmix.create 1) () in
  match Routing.decide s ~dst:5 with
  | Routing.Dead_end -> ()
  | Routing.Resolve | Routing.Forward _ -> Alcotest.fail "empty server must dead-end"

let test_prune_map_with_digests () =
  let cluster = pristine () in
  let s = Array.get cluster.Cluster.servers 0 in
  let node = 9 in
  let map =
    Node_map.of_entries ~max:4
      [
        { Node_map.server = 3; is_owner = false; stamp = 1.0 };
        { Node_map.server = 4; is_owner = false; stamp = 1.0 };
        { Node_map.server = 5; is_owner = true; stamp = 1.0 };
      ]
  in
  (* digest for 3 denies hosting [node]; digest for 4 confirms; 5 unknown *)
  Digest_store.record_remote s.Server.digests ~server:3 ~version:1
    (Terradir_bloom.Bloom.of_list ~bits_per_element:16 ~hashes:10 [ 777 ]);
  Digest_store.record_remote s.Server.digests ~server:4 ~version:1
    (Terradir_bloom.Bloom.of_list ~bits_per_element:16 ~hashes:10 [ node ]);
  let pruned = Server.prune_map_with_digests s node map in
  Alcotest.(check bool) "denied entry pruned" false (Node_map.mem pruned 3);
  Alcotest.(check bool) "confirmed entry kept" true (Node_map.mem pruned 4);
  Alcotest.(check bool) "unknown entry kept" true (Node_map.mem pruned 5)

let test_prune_noop_without_digests () =
  let cfg = { config with Config.features = Config.bc } in
  let cluster = Cluster.create ~monitor:false ~config:cfg ~tree () in
  let s = Array.get cluster.Cluster.servers 0 in
  let map = Node_map.singleton ~server:3 ~stamp:1.0 () in
  Digest_store.record_remote s.Server.digests ~server:3 ~version:1
    (Terradir_bloom.Bloom.of_list [ 777 ]);
  Alcotest.(check bool) "feature off: untouched" true
    (Server.prune_map_with_digests s 9 map == map)

let test_fallback_past_serverless_candidate () =
  (* The nearest candidate's map lists only the routing server itself, so
     it yields no server to forward to; the decision must fall through to
     the next candidate in distance order. *)
  let s = Server.create ~id:0 ~config ~tree ~rng:(Splitmix.create 3) () in
  let dst = 30 in
  let parent = 14 and grandparent = 6 in
  Cache.insert s.Server.cache ~node:parent (Node_map.singleton ~server:0 ~stamp:1.0 ());
  Cache.insert s.Server.cache ~node:grandparent (Node_map.singleton ~server:5 ~stamp:1.0 ());
  match Routing.decide s ~dst with
  | Routing.Forward { via_node; to_server; shortcut } ->
    Alcotest.(check int) "via the farther entry" grandparent via_node;
    Alcotest.(check int) "to its server" 5 to_server;
    Alcotest.(check bool) "not a digest shortcut" false shortcut
  | Routing.Resolve | Routing.Dead_end -> Alcotest.fail "expected a forward via the fallback"

(* Property: on random pristine clusters (varying seed), the full routing
   walk reaches the destination from any of the first few servers. *)
let prop_routing_converges =
  QCheck.Test.make ~name:"routing: walks converge on random placements" ~count:30
    QCheck.(pair (int_bound 1000) (int_bound 30))
    (fun (seed, dst) ->
      let cfg = { config with Config.seed = seed + 1 } in
      let cluster = Cluster.create ~monitor:false ~config:cfg ~tree () in
      let start =
        Array.to_list cluster.Cluster.servers
        |> List.find (fun s -> Server.hosted_nodes s <> [])
      in
      let rec walk s hops =
        if hops > 2 * Tree.max_depth tree then false
        else
          match Routing.decide s ~dst with
          | Routing.Resolve -> true
          | Routing.Dead_end -> false
          | Routing.Forward { to_server; _ } -> walk (Cluster.server cluster to_server) (hops + 1)
      in
      walk start 0)

(* The digest shortcut as first written: walk dst's ancestors outward and,
   at each, try the consulted digests in MRU order — the first hit wins.
   [mru] is the store's content most recent first, modelled independently
   of [Digest_store] (see [record] below). *)
let ancestor_major_shortcut ~self ~mru ~dst ~better_than =
  let limit = min better_than 6 in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (srv, _, bloom) :: rest -> if srv = self then take n rest else (srv, bloom) :: take (n - 1) rest
  in
  let consulted = take Server.max_digests_consulted mru in
  if limit <= 0 || consulted = [] then None
  else
    let rec walk node dist =
      if dist >= limit then None
      else
        match List.find_opt (fun (_, bloom) -> Terradir_bloom.Bloom.mem bloom node) consulted with
        | Some (srv, _) -> Some (node, srv, dist)
        | None -> ( match Tree.parent shortcut_tree node with Some p -> walk p (dist + 1) | None -> None)
    in
    walk dst 0

(* [Digest_store.record_remote]'s contract: a strictly newer version
   replaces the held digest and becomes most recent; the least recent
   falls out past capacity. *)
let record ~capacity mru (srv, version, bloom) =
  match List.find_opt (fun (s, _, _) -> s = srv) mru with
  | Some (_, held, _) when held >= version -> mru
  | Some _ | None ->
    let rest = List.filter (fun (s, _, _) -> s <> srv) mru in
    List.filteri (fun i _ -> i < capacity) ((srv, version, bloom) :: rest)

let shortcut_capacity = 10

let arb_shortcut_case =
  let open QCheck.Gen in
  let n = Tree.size shortcut_tree in
  let digest =
    (* Few bits per element, so false positives show up too. *)
    map3
      (fun srv version (bits, nodes) ->
        (srv, version, Terradir_bloom.Bloom.of_list ~bits_per_element:bits ~hashes:3 nodes))
      (int_bound 13) (int_bound 6)
      (pair (oneofl [ 2; 16 ]) (list_size (int_bound 6) (int_bound (n - 1))))
  in
  let case =
    quad (list_size (int_bound 24) digest) (int_bound (n - 1))
      (oneofl [ 0; 1; 2; 3; 5; 6; 7; max_int ])
      bool
  in
  QCheck.make
    ~print:(fun (events, dst, better_than, _) ->
      Printf.sprintf "%d digests recorded, dst %d, better_than %d" (List.length events) dst better_than)
    case

let prop_digest_major_shortcut =
  QCheck.Test.make ~name:"routing: digest-major shortcut = ancestor-major walk" ~count:400
    arb_shortcut_case (fun (events, dst, better_than, digests_on) ->
      let features = if digests_on then Config.bcr else Config.bc in
      let cfg = { config with Config.features } in
      let s = Server.create ~id:0 ~config:cfg ~tree:shortcut_tree ~rng:(Splitmix.create 5) () in
      let s = { s with Server.digests = Digest_store.create ~max_remote:shortcut_capacity () } in
      let mru =
        List.fold_left
          (fun mru ((srv, version, bloom) as ev) ->
            Digest_store.record_remote s.Server.digests ~server:srv ~version bloom;
            record ~capacity:shortcut_capacity mru ev)
          [] events
      in
      let expected =
        if digests_on then ancestor_major_shortcut ~self:0 ~mru ~dst ~better_than else None
      in
      Routing.digest_shortcut s ~dst ~better_than = expected)

let () =
  Alcotest.run "terradir_routing"
    [
      ( "routing",
        [
          Alcotest.test_case "resolve when hosted" `Quick test_resolve_when_hosted;
          Alcotest.test_case "forward progress" `Quick test_forward_makes_progress;
          Alcotest.test_case "routes terminate" `Quick test_full_route_terminates;
          Alcotest.test_case "cache shortcut" `Quick test_cache_shortcut_used;
          Alcotest.test_case "digest shortcut" `Quick test_digest_shortcut;
          Alcotest.test_case "shortcut gated by feature" `Quick test_digest_shortcut_disabled_by_feature;
          Alcotest.test_case "shortcut strictness" `Quick test_shortcut_only_when_strictly_better;
          Alcotest.test_case "dead end" `Quick test_dead_end_without_knowledge;
          Alcotest.test_case "map pruning" `Quick test_prune_map_with_digests;
          Alcotest.test_case "pruning gated" `Quick test_prune_noop_without_digests;
          Alcotest.test_case "fallback past a serverless candidate" `Quick
            test_fallback_past_serverless_candidate;
        ] );
      ( "routing-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_routing_converges; prop_digest_major_shortcut ] );
    ]
