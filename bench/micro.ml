(* Micro-benchmarks of the protocol's hot operations (Bechamel).

   These are the per-event costs that determine how large a deployment the
   simulator can replay: one routing decision, one map merge, one digest
   test, one cache insert, one engine event. *)

open Bechamel
open Toolkit
open Terradir_util
open Terradir_namespace
open Terradir
open Types

(* A server warmed up with replicas, cache entries and remote digests, as it
   would look mid-run. *)
let warmed_server () =
  let tree = Build.balanced ~arity:2 ~levels:11 in
  let config = { Config.default with Config.num_servers = 256; seed = 5 } in
  let rng = Splitmix.create 99 in
  let s = Server.create ~id:0 ~config ~tree ~rng () in
  let owner_of node = node mod config.Config.num_servers in
  (* 8 owned nodes spread over the tree *)
  for i = 0 to 7 do
    let n = (i * 37) mod Tree.size tree in
    Server.add_owned s n ~owner_map:(fun v ->
        Node_map.singleton ~is_owner:true ~server:(if v = n then 0 else owner_of v) ~stamp:0.0 ())
  done;
  (* 16 replicas *)
  let payload node =
    {
      rp_node = node;
      rp_meta_version = 1;
      rp_map = Node_map.singleton ~is_owner:true ~server:(owner_of node) ~stamp:1.0 ();
      rp_context =
        List.map
          (fun nb -> (nb, Node_map.singleton ~is_owner:true ~server:(owner_of nb) ~stamp:1.0 ()))
          (Tree.neighbors tree node);
      rp_weight_hint = 2.0;
    }
  in
  for i = 0 to 15 do
    ignore (Server.install_replica s (payload (((i * 101) + 13) mod Tree.size tree)) ~now:1.0)
  done;
  (* cache entries *)
  for i = 0 to 23 do
    Cache.insert s.Server.cache ~node:(((i * 211) + 7) mod Tree.size tree)
      (Node_map.singleton ~server:(i mod 256) ~stamp:2.0 ())
  done;
  (* remote digests *)
  for peer = 1 to 16 do
    let hosted = List.init 24 (fun i -> ((peer * 400) + (i * 17)) mod Tree.size tree) in
    Digest_store.record_remote s.Server.digests ~server:peer ~version:1
      (Terradir_bloom.Bloom.of_list ~bits_per_element:16 ~hashes:10 hosted);
    Server.note_peer_load s peer (float_of_int peer /. 20.0)
  done;
  (s, tree)

let bench_routing_decide =
  let s, tree = warmed_server () in
  let dst = ref 1 in
  Test.make ~name:"routing_decide" (Staged.stage (fun () ->
      dst := ((!dst * 7919) + 11) mod Tree.size tree;
      ignore (Routing.decide s ~dst:!dst)))

(* The same decision against a server that has learned a digest from every
   peer of a 256-server deployment (the remote store at its cap) and the
   believed load of all 255 — the shape fig9's larger sizes hit on every
   hop.  Guards the two fixes that made that figure collapse: the shortcut
   walk must touch only its MRU prefix, not the whole store, and the
   replication trigger's believed-mean check must stay O(1). *)
let bench_routing_decide_full_store =
  let s, tree = warmed_server () in
  for peer = 1 to 255 do
    let hosted = List.init 24 (fun i -> ((peer * 401) + (i * 19)) mod Tree.size tree) in
    Digest_store.record_remote s.Server.digests ~server:peer ~version:2
      (Terradir_bloom.Bloom.of_list ~bits_per_element:16 ~hashes:10 hosted);
    Server.note_peer_load s peer (float_of_int peer /. 300.0)
  done;
  let dst = ref 1 in
  Test.make ~name:"routing_decide_full_store" (Staged.stage (fun () ->
      dst := ((!dst * 7919) + 11) mod Tree.size tree;
      ignore (Routing.decide s ~dst:!dst)))

let bench_replication_trigger =
  let s, _tree = warmed_server () in
  for peer = 1 to 255 do
    Server.note_peer_load s peer (float_of_int peer /. 300.0)
  done;
  (* Two busy windows put the sustained load above the floor so the
     adaptive-threshold arm (the formerly O(peers) one) is what's timed. *)
  let t = ref 0.0 in
  for _ = 1 to 4 do
    Load_meter.begin_busy s.Server.load !t;
    t := !t +. 0.45;
    Load_meter.end_busy s.Server.load !t;
    t := !t +. 0.05
  done;
  Test.make ~name:"replication_trigger" (Staged.stage (fun () ->
      t := !t +. 1e-7;
      ignore (Replication.should_start s ~now:!t)))

let bench_tree_distance =
  let tree = Build.balanced ~arity:2 ~levels:14 in
  let a = ref 1 and b = ref 2 in
  Test.make ~name:"tree_distance" (Staged.stage (fun () ->
      a := ((!a * 7919) + 3) mod Tree.size tree;
      b := ((!b * 104729) + 5) mod Tree.size tree;
      ignore (Tree.distance tree !a !b)))

let bench_node_map_merge =
  let rng = Splitmix.create 3 in
  let mk stamp = Node_map.of_entries ~max:4
      [
        { Node_map.server = 1; is_owner = true; stamp };
        { Node_map.server = 2; is_owner = false; stamp = stamp +. 1.0 };
        { Node_map.server = 3; is_owner = false; stamp = stamp +. 2.0 };
      ]
  in
  let a = mk 1.0 and b = mk 5.0 in
  Test.make ~name:"node_map_merge" (Staged.stage (fun () -> ignore (Node_map.merge ~max:4 rng a b)))

let bench_node_map_merge_subsumed =
  let rng = Splitmix.create 3 in
  let a =
    Node_map.of_entries ~max:4
      [
        { Node_map.server = 1; is_owner = true; stamp = 9.0 };
        { Node_map.server = 2; is_owner = false; stamp = 9.0 };
      ]
  in
  Test.make ~name:"node_map_merge_subsumed"
    (Staged.stage (fun () -> ignore (Node_map.merge ~max:4 rng a a)))

let bench_bloom_mem =
  let bloom = Terradir_bloom.Bloom.of_list ~bits_per_element:16 ~hashes:10 (List.init 24 (fun i -> i * 17)) in
  let x = ref 0 in
  Test.make ~name:"bloom_mem_negative" (Staged.stage (fun () ->
      incr x;
      ignore (Terradir_bloom.Bloom.mem bloom (1_000_000 + !x))))

let bench_cache_insert =
  let rng = Splitmix.create 4 in
  let cache = Cache.create ~slots:24 ~r_map:4 ~rng () in
  let map = Node_map.singleton ~server:3 ~stamp:1.0 () in
  let node = ref 0 in
  Test.make ~name:"cache_insert" (Staged.stage (fun () ->
      node := (!node + 97) land 1023;
      Cache.insert cache ~node:!node map))

(* New keys into a full 24-slot LRU (the cache at the default config):
   every put evicts the least recent entry by swap-remove. *)
let bench_lru_put_evict =
  let lru = Lru.create ~capacity:24 () in
  let k = ref 0 in
  for _ = 1 to 24 do
    incr k;
    Lru.put lru !k !k
  done;
  Test.make ~name:"lru_put_evict" (Staged.stage (fun () ->
      incr k;
      Lru.put lru !k !k))

(* Remove a key from a 32-entry table and add it back: the index's
   backward shift, then the append that refills it. *)
let bench_intmap_remove_add =
  let t = Intmap.create () in
  for i = 0 to 31 do
    Intmap.add t (i * 37) i
  done;
  let i = ref 0 in
  Test.make ~name:"intmap_remove_add" (Staged.stage (fun () ->
      i := (!i + 7) land 31;
      Intmap.remove t (!i * 37);
      Intmap.add t (!i * 37) !i))

let bench_engine_event =
  Test.make ~name:"engine_schedule_run" (Staged.stage (fun () ->
      let e = Terradir_sim.Engine.create () in
      for _ = 1 to 10 do
        Terradir_sim.Engine.schedule e ~delay:1.0 (fun () -> ())
      done;
      Terradir_sim.Engine.run e))

let bench_load_meter =
  let m = Load_meter.create ~window:0.5 in
  let t = ref 0.0 in
  Test.make ~name:"load_meter_cycle" (Staged.stage (fun () ->
      t := !t +. 0.001;
      Load_meter.begin_busy m !t;
      t := !t +. 0.001;
      Load_meter.end_busy m !t;
      ignore (Load_meter.load m !t)))

let bench_node_map_of_entries =
  (* 24 entries with duplicate servers and mixed owner flags — the shape
     [merge] and context assembly feed through [of_entries]. *)
  let entries =
    List.init 24 (fun i ->
        { Node_map.server = i mod 9; is_owner = i mod 5 = 0; stamp = float_of_int ((i * 31) mod 17) })
  in
  Test.make ~name:"node_map_of_entries"
    (Staged.stage (fun () -> ignore (Node_map.of_entries ~max:8 entries)))

let bench_splitmix_exp =
  let g = Splitmix.create 8 in
  Test.make ~name:"splitmix_exponential" (Staged.stage (fun () -> ignore (Splitmix.exponential g 0.02)))

(* The hook pattern every protocol layer compiles to, against the shared
   null sink: one boolean load, one untaken branch, no allocation.  This
   is the number behind the "< 2% with obs compiled in but disabled"
   budget. *)
let bench_obs_record_disabled =
  let obs = Terradir_obs.Obs.null in
  let i = ref 0 in
  Test.make ~name:"obs_record_disabled"
    (Staged.stage (fun () ->
         incr i;
         if Terradir_obs.Obs.spans_on obs then
           (* lint: obs-in-hot-path this is the benchmark of the hook itself *)
           Terradir_obs.Obs.record obs ~server:0
             (Terradir_obs.Event.Queue_enter { qid = !i; attempt = 0 })))

let bench_obs_record_enabled =
  let obs = Terradir_obs.Obs.create ~capacity:(1 lsl 12) ~level:Terradir_obs.Obs.Spans () in
  let i = ref 0 in
  Test.make ~name:"obs_record_enabled"
    (Staged.stage (fun () ->
         incr i;
         (* lint: obs-in-hot-path this is the benchmark of the hook itself *)
         Terradir_obs.Obs.record obs ~server:0
           (Terradir_obs.Event.Queue_enter { qid = !i; attempt = 0 })))

let bench_hist_add =
  let h = Terradir_obs.Hist.create () in
  let x = ref 1e-6 in
  Test.make ~name:"hist_add"
    (Staged.stage (fun () ->
         x := !x *. 1.001;
         if !x > 1e6 then x := 1e-6;
         Terradir_obs.Hist.add h !x))

let all =
  [
    bench_routing_decide;
    bench_routing_decide_full_store;
    bench_replication_trigger;
    bench_tree_distance;
    bench_node_map_merge;
    bench_node_map_merge_subsumed;
    bench_node_map_of_entries;
    bench_bloom_mem;
    bench_cache_insert;
    bench_lru_put_evict;
    bench_intmap_remove_add;
    bench_engine_event;
    bench_load_meter;
    bench_splitmix_exp;
    bench_obs_record_disabled;
    bench_obs_record_enabled;
    bench_hist_add;
  ]

(* Runs every micro-benchmark, prints the table, and returns
   [(name, ns_per_run)] for the JSON report. *)
let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  print_endline "== micro-benchmarks (ns per call) ==";
  let acc = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols (Instance.monotonic_clock) results in
      let rows =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun name ols_result l -> (name, ols_result) :: l) analyzed [])
      in
      List.iter
        (fun (name, ols_result) ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Printf.printf "  %-28s %12.1f ns/run\n%!" name est;
            acc := (name, est) :: !acc
          | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
        rows)
    all;
  List.rev !acc
