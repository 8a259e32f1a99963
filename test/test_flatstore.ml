(* Equivalence suites for the flat hot-path stores introduced by the
   zero-allocation work: the index-linked LRU against a reference list
   model, the iteration-driven Bloom digest rebuild against the historical
   list-based one, scratch-buffer and RNG-draw parity on Node_map merges —
   and two end-to-end locks: fig3 with observability Off vs Full, and a
   pooled-hot-path workload byte-compared across engine-domain counts
   (free lists, ring paths and SoA outboxes must all be trajectory
   invisible). *)

open Terradir
open Terradir_util
open Terradir_namespace
open Terradir_workload
module E = Terradir_experiments

let () = E.Runner.set_jobs (Some 1)

(* ------------------------------------------------------------------ *)
(* Flat LRU vs a reference model                                       *)
(* ------------------------------------------------------------------ *)

(* Reference model: bounded association list, most-recently-used first.
   O(n) everywhere — exactly the semantics the flat version must keep. *)
module Model = struct
  type t = { cap : int; mutable items : (int * int) list }

  let create cap = { cap; items = [] }

  let find m k =
    match List.assoc_opt k m.items with
    | None -> None
    | Some v ->
      m.items <- (k, v) :: List.remove_assoc k m.items;
      Some v

  let peek m k = List.assoc_opt k m.items

  let put m k v =
    let without = List.remove_assoc k m.items in
    let without =
      if List.mem_assoc k m.items || List.length without < m.cap then without
      else
        (* full and k is new: evict the least-recently-used (last) *)
        List.filteri (fun i _ -> i < List.length without - 1) without
    in
    if m.cap > 0 then m.items <- (k, v) :: without

  let remove m k = m.items <- List.remove_assoc k m.items

  let clear m = m.items <- []

  let keys m = List.map fst m.items
end

type lru_op = Put of int * int | Find of int | Peek of int | Remove of int | Clear

(* Keys range a little past the capacity, so a table both fills (and
   evicts) and runs below capacity; [Clear] is rare, and the refill after
   it regrows the arrays from nothing. *)
let lru_op_gen ~keys =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun k v -> Put (k, v)) (int_bound keys) (int_bound 1000));
        (6, map (fun k -> Find k) (int_bound keys));
        (2, map (fun k -> Peek k) (int_bound keys));
        (2, map (fun k -> Remove k) (int_bound keys));
        (1, return Clear);
      ])

let show_op = function
  | Put (k, v) -> Printf.sprintf "Put(%d,%d)" k v
  | Find k -> Printf.sprintf "Find %d" k
  | Peek k -> Printf.sprintf "Peek %d" k
  | Remove k -> Printf.sprintf "Remove %d" k
  | Clear -> "Clear"

(* The allocation-free views agree with the model after every operation:
   the cursor walks (key, value) pairs in MRU order, [keys_into] yields the
   key set, and a key keeps its slot for as long as it stays present
   ([slots] carries the previous step's key -> slot binding). *)
let views_agree lru (model : Model.t) slots =
  let rec walk slot =
    if slot < 0 then [] else (Lru.key_at lru slot, Lru.value_at lru slot) :: walk (Lru.next lru slot)
  in
  let dst = Array.make (max 1 (Lru.capacity lru)) (-1) in
  let n = Lru.keys_into lru dst in
  let stable =
    List.for_all
      (fun (k, _) ->
        let slot = Lru.slot lru k in
        slot >= 0
        && Lru.key_at lru slot = k
        && match Hashtbl.find_opt slots k with Some old -> old = slot | None -> true)
      model.Model.items
  in
  Hashtbl.reset slots;
  List.iter (fun (k, _) -> Hashtbl.replace slots k (Lru.slot lru k)) model.Model.items;
  walk (Lru.first lru) = model.Model.items
  && List.sort Int.compare (Array.to_list (Array.sub dst 0 n)) = List.sort Int.compare (Model.keys model)
  && stable

(* Capacities 0, 1, 5 and 64 besides the small range: 64 grows the
   arrays 4 → 64 and the index 8 → 128 under the model. *)
let lru_case_gen =
  QCheck.Gen.(
    frequency [ (2, int_range 0 8); (1, oneofl [ 0; 1; 5; 64 ]) ] >>= fun cap ->
    let keys = max 20 (cap + (cap / 2)) in
    map (fun ops -> (cap, ops)) (list_size (int_bound (max 60 (4 * cap))) (lru_op_gen ~keys)))

let prop_lru_model =
  QCheck.Test.make ~name:"flat LRU ≡ list model (ops, results, MRU order)" ~count:500
    (QCheck.make
       ~print:(fun (cap, l) ->
         Printf.sprintf "cap %d: %s" cap (String.concat "; " (List.map show_op l)))
       lru_case_gen)
    (fun (cap, ops) ->
      let lru = Lru.create ~capacity:cap in
      let model = Model.create cap in
      let slots = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
          | Put (k, v) ->
            Lru.put lru k v;
            Model.put model k v;
            true
          | Find k -> Lru.find lru k = Model.find model k
          | Peek k -> Lru.peek lru k = Model.peek model k
          | Remove k ->
            Lru.remove lru k;
            Model.remove model k;
            true
          | Clear ->
            Lru.clear lru;
            Model.clear model;
            true)
          && views_agree lru model slots)
        ops
      && Lru.keys_mru_order lru = Model.keys model
      && Lru.length lru = List.length (Model.keys model))

let test_lru_eviction_order () =
  let lru = Lru.create ~capacity:3 in
  List.iter (fun k -> Lru.put lru k (10 * k)) [ 1; 2; 3 ];
  ignore (Lru.find lru 1);
  (* 1 promoted: inserting 4 must evict 2, the LRU *)
  Lru.put lru 4 40;
  Alcotest.(check (list int)) "MRU order after eviction" [ 4; 1; 3 ] (Lru.keys_mru_order lru);
  Alcotest.(check bool) "evicted key gone" false (Option.is_some (Lru.peek lru 2));
  (* tombstone reuse: remove then reinsert keeps the index consistent *)
  Lru.remove lru 3;
  Lru.put lru 3 30;
  Lru.put lru 2 20;
  Alcotest.(check (list int)) "after churn" [ 2; 3; 4 ] (Lru.keys_mru_order lru)

(* ------------------------------------------------------------------ *)
(* Intmap vs Map                                                       *)
(* ------------------------------------------------------------------ *)

module IM = Map.Make (Int)

type intmap_op =
  | I_add of int * int
  | I_replace of int * int
  | I_remove of int
  | I_remove_last
  | I_find of int
  | I_iter

let show_intmap_op = function
  | I_add (k, v) -> Printf.sprintf "Add(%d,%d)" k v
  | I_replace (k, v) -> Printf.sprintf "Replace(%d,%d)" k v
  | I_remove k -> Printf.sprintf "Remove %d" k
  | I_remove_last -> "RemoveLast"
  | I_find k -> Printf.sprintf "Find %d" k
  | I_iter -> "Iter"

(* Keys from a range of [keys] plus a few far-apart ones (the scramble
   must spread those too).  Long runs of adds grow the table past 64
   entries; long runs of removes leave tombstones until a sweep. *)
let intmap_op_gen ~keys =
  QCheck.Gen.(
    let far = map (fun k -> (k * 1_000_003) + 7) (int_bound 50) in
    let key = frequency [ (9, int_bound keys); (1, far) ] in
    frequency
      [
        (6, map2 (fun k v -> I_add (k, v)) key (int_bound 1000));
        (3, map2 (fun k v -> I_replace (k, v)) key (int_bound 1000));
        (4, map (fun k -> I_remove k) key);
        (1, return I_remove_last);
        (3, map (fun k -> I_find k) key);
        (1, return I_iter);
      ])

(* The dense index agrees with the table: every slot's key resolves to
   that slot and carries the model's value, and the slots hold exactly the
   model's keys. *)
let intmap_agrees t model =
  let n = Intmap.length t in
  let dense = List.init n (fun i -> (Intmap.key_at t i, Intmap.value_at t i)) in
  n = IM.cardinal model
  && List.for_all (fun i -> Intmap.slot t (Intmap.key_at t i) = i) (List.init n Fun.id)
  && List.sort compare dense = IM.bindings model
  && IM.for_all (fun k v -> Intmap.find_opt t k = Some v && Intmap.mem t k) model

let prop_intmap_model =
  QCheck.Test.make ~name:"intmap ≡ Map (add/replace/remove/find/iter, dense index)" ~count:300
    (QCheck.make
       ~print:(fun (keys, l) ->
         Printf.sprintf "keys %d: %s" keys (String.concat "; " (List.map show_intmap_op l)))
       QCheck.Gen.(
         oneofl [ 4; 40; 200 ] >>= fun keys ->
         map (fun ops -> (keys, ops)) (list_size (int_bound 400) (intmap_op_gen ~keys))))
    (fun (_, ops) ->
      let t = Intmap.create () in
      let model = ref IM.empty in
      List.for_all
        (fun op ->
          (match op with
          | I_add (k, v) -> (
            match Intmap.add t k v with
            | () ->
              let fresh = not (IM.mem k !model) in
              model := IM.add k v !model;
              fresh
            | exception Invalid_argument _ -> IM.mem k !model)
          | I_replace (k, v) ->
            Intmap.replace t k v;
            model := IM.add k v !model;
            true
          | I_remove k ->
            Intmap.remove t k;
            model := IM.remove k !model;
            true
          | I_remove_last ->
            let n = Intmap.length t in
            if n > 0 then begin
              model := IM.remove (Intmap.key_at t (n - 1)) !model;
              Intmap.remove_at t (n - 1)
            end;
            true
          | I_find k -> Intmap.find_opt t k = IM.find_opt k !model
          | I_iter ->
            let seen = ref [] in
            Intmap.iter t ~f:(fun k v -> seen := (k, v) :: !seen);
            let folded = Intmap.fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
            List.sort compare !seen = IM.bindings !model && folded = !seen)
          && intmap_agrees t !model)
        ops)

(* A downward walk may remove as it goes: what [Ranking.decay] relies on. *)
let test_intmap_downward_removal () =
  let t = Intmap.create () in
  for k = 0 to 99 do
    Intmap.add t (k * 7) k
  done;
  for i = Intmap.length t - 1 downto 0 do
    let v = Intmap.value_at t i in
    if v mod 3 = 0 then Intmap.remove_at t i else Intmap.set_at t i (v * 10)
  done;
  let expected =
    List.filter_map
      (fun k -> if k mod 3 = 0 then None else Some (k * 7, k * 10))
      (List.init 100 Fun.id)
  in
  Alcotest.(check (list (pair int int)))
    "every survivor updated once, every multiple of 3 gone" expected
    (List.sort compare (Intmap.fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc)));
  for i = Intmap.length t - 1 downto 0 do
    Intmap.remove_at t i
  done;
  Alcotest.(check int) "emptied" 0 (Intmap.length t);
  Alcotest.(check (option int)) "nothing found" None (Intmap.find_opt t 7);
  Intmap.add t 7 1;
  Alcotest.(check (option int)) "refills" (Some 1) (Intmap.find_opt t 7)

(* ------------------------------------------------------------------ *)
(* Digest rebuild: list path vs iteration path                         *)
(* ------------------------------------------------------------------ *)

(* [rebuild_local_from] over a hash table's arbitrary iteration order
   must build the SAME filter as [rebuild_local] over the sorted list the
   server historically materialized: Bloom bit-sets are insertion-order
   independent, and both paths must size the filter identically. *)
let prop_digest_rebuild =
  QCheck.Test.make ~name:"digest rebuild: Hashtbl iteration ≡ sorted list" ~count:200
    QCheck.(list_of_size (Gen.int_bound 80) (int_bound 10_000))
    (fun nodes ->
      let dedup = List.sort_uniq compare nodes in
      let tbl = Hashtbl.create 16 in
      List.iter (fun n -> Hashtbl.replace tbl n ()) nodes;
      let by_list = Digest_store.create ~max_remote:4 () in
      Digest_store.rebuild_local by_list ~hosted:dedup;
      let by_iter = Digest_store.create ~max_remote:4 () in
      Digest_store.rebuild_local_from by_iter ~count:(Hashtbl.length tbl)
        ~iter:(fun add -> Hashtbl.iter (fun n () -> add n) tbl);
      Terradir_bloom.Bloom.equal (Digest_store.local by_list) (Digest_store.local by_iter)
      && Digest_store.local_version by_list = Digest_store.local_version by_iter)

(* ------------------------------------------------------------------ *)
(* Node_map merge: scratch parity and RNG-draw parity                  *)
(* ------------------------------------------------------------------ *)

let entry_gen =
  QCheck.Gen.(
    map3
      (fun server is_owner stamp ->
        { Node_map.server; is_owner; stamp = float_of_int stamp /. 8.0 })
      (int_bound 30) (map (fun b -> b = 0) (int_bound 7)) (int_bound 100))

let map_gen =
  QCheck.Gen.(
    map
      (fun entries -> Node_map.of_entries ~max:12 entries)
      (list_size (int_bound 16) entry_gen))

let prop_merge_scratch_parity =
  QCheck.Test.make
    ~name:"merge: scratch buffer changes neither the result nor the RNG draw count"
    ~count:300
    QCheck.(
      triple (int_range 1 10) small_int
        (make
           ~print:(fun (a, b) ->
             Format.asprintf "%a / %a" Node_map.pp a Node_map.pp b)
           Gen.(pair map_gen map_gen)))
    (fun (max, seed, (a, b)) ->
      let rng_plain = Splitmix.create seed in
      let rng_scratch = Splitmix.create seed in
      let scratch = Node_map.scratch () in
      let plain = Node_map.merge ~max rng_plain a b in
      let with_scratch = Node_map.merge ~scratch ~max rng_scratch a b in
      Node_map.entries plain = Node_map.entries with_scratch
      && Splitmix.draws rng_plain = Splitmix.draws rng_scratch)

(* Reusing ONE scratch across many merges must leave each result
   independent of the scratch's prior contents (results are snapshots,
   never aliases into the workspace). *)
let prop_merge_scratch_reuse =
  QCheck.Test.make ~name:"merge: reused scratch leaves earlier results intact" ~count:200
    QCheck.(
      pair small_int
        (make
           ~print:(fun maps ->
             String.concat " / " (List.map (Format.asprintf "%a" Node_map.pp) maps))
           Gen.(list_size (int_range 2 6) map_gen)))
    (fun (seed, maps) ->
      let fresh_results =
        List.map
          (fun m -> Node_map.merge ~max:6 (Splitmix.create seed) m m)
          maps
      in
      let scratch = Node_map.scratch () in
      let reused_results =
        List.map
          (fun m -> Node_map.merge ~scratch ~max:6 (Splitmix.create seed) m m)
          maps
      in
      List.for_all2
        (fun a b -> Node_map.entries a = Node_map.entries b)
        fresh_results reused_results)

(* ------------------------------------------------------------------ *)
(* End-to-end locks                                                    *)
(* ------------------------------------------------------------------ *)

(* Observability reads pooled records (message loads, query paths) but
   must never perturb them: fig3's series byte-identical Off vs Full. *)
let test_fig3_obs_off_vs_full () =
  (* 90 s: the uzipf streams open with staggered warmups up to 70 s. *)
  let run () = E.Fig3.run ~scale:0.002 ~duration:90.0 ~seed:42 () in
  let off = run () in
  let full = E.Runner.with_obs ~level:Terradir_obs.Obs.Full (fun () -> run ()) in
  Alcotest.(check (list string))
    "same streams" (List.map fst off.E.Fig3.series) (List.map fst full.E.Fig3.series);
  List.iter2
    (fun (label, a) (_, b) ->
      Alcotest.(check (array (float 0.0))) ("series " ^ label) a b)
    off.E.Fig3.series full.E.Fig3.series

(* The pooling stress: queries, fetches, and a kill/revive cycle (the
   free-list terminal sweeps) on K = 1 vs K = 4 — per-lane pools see
   records migrate across lanes with the traffic, and the metrics CSV
   must not move a byte. *)
let workload_csv domains =
  let config =
    {
      Config.default with
      Config.num_servers = 30;
      engine_domains = domains;
      rpc_timeout = 0.5;
      net_loss = 0.02;
      seed = 23;
    }
  in
  let tree = Build.balanced ~arity:2 ~levels:6 in
  let cluster = Cluster.create ~config ~tree () in
  let kill_t = 4.0 and revive_t = 6.0 in
  Terradir_sim.Engine.schedule_at cluster.Cluster.engine kill_t (fun () ->
      Cluster.kill cluster 7);
  Terradir_sim.Engine.schedule_at cluster.Cluster.engine revive_t (fun () ->
      Cluster.revive cluster 7);
  Scenario.run cluster
    ~phases:(Stream.unif ~rate:120.0 ~duration:10.0)
    ~seed:5 ~fetch_probability:0.2;
  E.Csv_export.metrics_csv (Cluster.metrics cluster)

let test_pooled_path_k_equivalence () =
  let k1 = workload_csv 1 in
  let k4 = workload_csv 4 in
  Alcotest.(check string) "pooled hot path: K=1 vs K=4 metrics CSV" k1 k4

let () =
  Alcotest.run "terradir_flatstore"
    [
      ( "lru",
        Alcotest.test_case "eviction order and churn" `Quick test_lru_eviction_order
        :: List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_lru_model ] );
      ( "intmap",
        Alcotest.test_case "downward removal" `Quick test_intmap_downward_removal
        :: List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_intmap_model ] );
      ("digests", List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_digest_rebuild ]);
      ( "node_map",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_merge_scratch_parity; prop_merge_scratch_reuse ] );
      ( "end-to-end",
        [
          Alcotest.test_case "fig3 Off vs Full" `Slow test_fig3_obs_off_vs_full;
          Alcotest.test_case "pooled path K=1 vs K=4" `Slow test_pooled_path_k_equivalence;
        ] );
    ]
