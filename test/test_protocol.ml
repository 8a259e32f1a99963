(* The protocol core driven directly: a recording transport and a bare
   engine, no cluster.  Each case runs one protocol step and checks what
   went onto the wire and what changed in soft state. *)

open Terradir_util
open Terradir_namespace
open Terradir_sim
open Terradir
open Types
module Obs = Terradir_obs.Obs

let tree = Build.balanced ~arity:2 ~levels:4 (* 31 nodes *)

let n = 4

let owner_of = Array.init (Tree.size tree) (fun v -> v mod n)

let base_config = { Config.default with Config.num_servers = n }

type sent = { from : server_id; to_ : server_id; payload : payload }

(* Sends and first hops are logged, query records come fresh and are
   counted when retired. *)
type fake = {
  core : Protocol.t;
  sent : sent list ref;  (** newest first *)
  queued : query list ref;  (** newest first *)
  freed : int ref;
}

(* Servers bootstrapped as [Cluster.create] does: one owner singleton per
   node, shared by its owner and every tree neighbor's context. *)
let make ?(config = base_config) () =
  let sent = ref [] and queued = ref [] and freed = ref 0 in
  let servers =
    Array.init n (fun id -> Server.create ~id ~config ~tree ~rng:(Splitmix.create (id + 1)) ())
  in
  let owner_maps =
    Array.map (fun owner -> Node_map.singleton ~is_owner:true ~server:owner ~stamp:0.0 ()) owner_of
  in
  Array.iteri
    (fun node owner -> Server.add_owned servers.(owner) node ~owner_map:(Array.get owner_maps))
    owner_of;
  let per_server () = Array.init n (fun _ -> Stats.create ()) in
  let core =
    {
      Protocol.engine = Engine.create ();
      config;
      tree;
      servers;
      owner_of;
      obs = Obs.null;
      hop_budget = (4 * Tree.max_depth tree) + 16;
      data_holders = Array.map (fun owner -> [| owner |]) owner_of;
      shard_ix = Array.make n 0;
      pending = [| Hashtbl.create 8 |];
      lane_metrics = [| Metrics.create () |];
      lat_stats = per_server ();
      hops_stats = per_server ();
      data_lat_stats = per_server ();
      meta_lag_stats = per_server ();
      replicas_created_per_level = [| Array.make (Tree.max_depth tree + 1) 0 |];
      id_seq = Array.make n 0;
      meta_version = Array.make (Tree.size tree) 0;
      transport =
        {
          Protocol.send = (fun ~from ~to_ payload -> sent := { from; to_; payload } :: !sent);
          enqueue = (fun q -> queued := q :: !queued);
          alloc_query = fresh_query;
          free_query = (fun _ -> incr freed);
        };
    }
  in
  { core; sent; queued; freed }

let message ~from ~to_ payload =
  {
    msg_from = from;
    msg_to = to_;
    msg_epoch = 0;
    msg_load = Float.Array.make 1 0.0;
    msg_digest_version = 0;
    msg_digest = None;
    msg_payload = payload;
    msg_deliver = ignore;
    msg_served = ignore;
  }

let met f = f.core.Protocol.lane_metrics.(0)

(* A lookup issued at [src]: its first attempt's record, from the
   transport's enqueue, and the log of outcomes its callback saw. *)
let lookup f ~src ~dst =
  let outcomes = ref [] in
  let id = Protocol.next_id f.core src in
  Protocol.issue f.core id
    {
      Protocol.issuer = src;
      node = dst;
      born = 0.0;
      attempt = 0;
      kind = Lookup (Some (fun o -> outcomes := o :: !outcomes));
    };
  match !(f.queued) with
  | q :: _ when q.qid = id -> (q, outcomes)
  | _ -> Alcotest.fail "issue did not hand its first attempt to enqueue"

(* A destination server 0 neither hosts nor can resolve in one step. *)
let far_dst = 1

let test_forward_sends_one_query () =
  let f = make () in
  (* an identical twin shows what routing decides, without touching [f] *)
  let twin = make () in
  let expected =
    match
      Routing.decide ~shortcut_bound:max_int twin.core.Protocol.servers.(0) ~dst:far_dst
    with
    | Routing.Forward { to_server; via_node; _ } -> (to_server, via_node)
    | Routing.Resolve | Routing.Dead_end -> Alcotest.fail "server 0 must forward"
  in
  let q, outcomes = lookup f ~src:0 ~dst:far_dst in
  Protocol.process f.core 0 (message ~from:0 ~to_:0 q.as_query);
  (match !(f.sent) with
  | [ { from = 0; to_; payload = Query q' } ] ->
    Alcotest.(check int) "to the decided server" (fst expected) to_;
    Alcotest.(check bool) "the same record travels" true (q' == q);
    Alcotest.(check int) "on behalf of the decided node" (snd expected) q.target;
    Alcotest.(check int) "one hop taken" 1 q.hops
  | _ -> Alcotest.failf "expected exactly one Query send, got %d sends" (List.length !(f.sent)));
  Alcotest.(check int) "query_forwards bumped" 1 (met f).Metrics.query_forwards;
  Alcotest.(check int) "no outcome yet" 0 (List.length !outcomes)

let test_stale_forward_corrects_sender () =
  let f = make () in
  let delay = f.core.Protocol.config.Config.network_delay in
  (* Server 0 owns the root, so it keeps a context for each child; make
     one of them wrongly claim server [x] hosts it. *)
  let x = 2 in
  let target = List.find (fun v -> owner_of.(v) <> x) (Tree.neighbors tree Tree.root) in
  let s0 = f.core.Protocol.servers.(0) in
  Server.merge_into_known_map s0 target (Node_map.singleton ~server:x ~stamp:0.0 ()) ~now:0.0;
  let claims () =
    match Server.known_map s0 target with Some m -> Node_map.mem m x | None -> false
  in
  Alcotest.(check bool) "stale entry planted" true (claims ());
  let q = fresh_query () in
  q.qid <- Protocol.next_id f.core 0;
  q.src_server <- 0;
  q.dst <- target;
  q.target <- target;
  q.hops <- 1;
  Protocol.process f.core x (message ~from:0 ~to_:x q.as_query);
  Alcotest.(check int) "stale forward counted" 1 (met f).Metrics.stale_forwards;
  Engine.run ~until:(delay /. 2.0) f.core.Protocol.engine;
  Alcotest.(check bool) "sender still stale before one network delay" true (claims ());
  Engine.run ~until:delay f.core.Protocol.engine;
  Alcotest.(check bool) "stale entry removed one network delay later" false (claims ())

(* The boundary: a forward that reaches exactly [hop_budget] hops still
   goes out; one more gives the request up, once, with [Hop_budget]. *)
let test_hop_budget_gives_up_once () =
  let f = make ~config:{ base_config with Config.rpc_timeout = 1.0 } () in
  let budget = f.core.Protocol.hop_budget in
  let q, outcomes = lookup f ~src:0 ~dst:far_dst in
  q.hops <- budget - 1;
  Protocol.process f.core 0 (message ~from:0 ~to_:0 q.as_query);
  Alcotest.(check int) "at the budget the query is forwarded" 1 (List.length !(f.sent));
  Alcotest.(check int) "and not given up" 0 (List.length !outcomes);
  let q, outcomes = lookup f ~src:0 ~dst:far_dst in
  q.hops <- budget;
  Protocol.process f.core 0 (message ~from:0 ~to_:0 q.as_query);
  (* the armed timers fire and must find both requests settled or live *)
  Engine.run ~until:10.0 f.core.Protocol.engine;
  Alcotest.(check int) "past the budget nothing more is sent" 1
    (List.length
       (List.filter (fun s -> match s.payload with Query _ -> true | _ -> false) !(f.sent)));
  (match !outcomes with
  | [ Dropped Hop_budget ] -> ()
  | l -> Alcotest.failf "expected one Dropped Hop_budget, got %d outcomes" (List.length l));
  Alcotest.(check int) "one hop-budget drop counted" 1 (met f).Metrics.dropped_hops;
  Alcotest.(check bool) "the dropped record was retired" true (!(f.freed) >= 1)

let test_load_reply_replicates () =
  let f = make () in
  let s = f.core.Protocol.servers.(0) and peer = 1 in
  List.iter (fun node -> Ranking.seed s.Server.ranking node 1.0) (Server.owned_nodes s);
  ignore (Load_meter.raw_load s.Server.load 0.0 : float);
  Load_meter.set_adjustment s.Server.load 0.9;
  let session = Protocol.next_id f.core 0 in
  s.Server.session <- Some { Server.session_id = session; tried = [ peer ]; attempts = 1 };
  Protocol.process f.core 0
    (message ~from:peer ~to_:0 (Load_reply { session; load = 0.1 }));
  (match !(f.sent) with
  | [ { from = 0; to_; payload = Replicate { session = sess; replicas } } ] ->
    Alcotest.(check int) "to the replying peer" peer to_;
    Alcotest.(check int) "in the open session" session sess;
    Alcotest.(check bool) "some replicas shipped" true (replicas <> []);
    List.iter
      (fun rp ->
        match Server.find_hosted s rp.rp_node with
        | Some h ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d's map names the new replica" rp.rp_node)
            true (Node_map.mem h.Server.h_map peer)
        | None -> Alcotest.failf "shipped node %d is not hosted" rp.rp_node)
      replicas
  | l -> Alcotest.failf "expected exactly one Replicate send, got %d sends" (List.length l));
  Alcotest.(check bool) "session closed" true (s.Server.session = None)

let () =
  Alcotest.run "terradir_protocol"
    [
      ( "fake transport",
        [
          Alcotest.test_case "forward sends one query" `Quick test_forward_sends_one_query;
          Alcotest.test_case "stale forward corrects the sender" `Quick
            test_stale_forward_corrects_sender;
          Alcotest.test_case "hop budget gives up once" `Quick test_hop_budget_gives_up_once;
          Alcotest.test_case "load reply replicates" `Quick test_load_reply_replicates;
        ] );
    ]
