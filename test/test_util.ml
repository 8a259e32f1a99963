(* Unit and property tests for the terradir_util foundation modules. *)

open Terradir_util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Splitmix                                                            *)
(* ------------------------------------------------------------------ *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.bits64 a) (Splitmix.bits64 b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix.create 1 and b = Splitmix.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Splitmix.bits64 a <> Splitmix.bits64 b)

let test_splitmix_copy_independent () =
  let a = Splitmix.create 7 in
  let _ = Splitmix.bits64 a in
  let b = Splitmix.copy a in
  Alcotest.(check int64) "copy continues stream" (Splitmix.bits64 a) (Splitmix.bits64 b);
  let _ = Splitmix.bits64 a in
  (* b not advanced by a's draws *)
  let a' = Splitmix.copy a in
  Alcotest.(check int64) "copies align again" (Splitmix.bits64 a) (Splitmix.bits64 a')

let test_splitmix_split_diverges () =
  let a = Splitmix.create 9 in
  let child = Splitmix.split a in
  Alcotest.(check bool) "child stream differs" true (Splitmix.bits64 child <> Splitmix.bits64 a)

let test_splitmix_int_bounds () =
  let g = Splitmix.create 3 in
  for _ = 1 to 10_000 do
    let v = Splitmix.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound rejected" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Splitmix.int g 0))

let test_splitmix_int_uniformity () =
  let g = Splitmix.create 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Splitmix.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (abs (c - expected) < expected / 10))
    buckets

let test_splitmix_float_range () =
  let g = Splitmix.create 5 in
  for _ = 1 to 10_000 do
    let v = Splitmix.float g 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_splitmix_exponential_mean () =
  let g = Splitmix.create 13 in
  let s = Stats.create () in
  for _ = 1 to 200_000 do
    Stats.add s (Splitmix.exponential g 0.02)
  done;
  Alcotest.(check bool) "mean near 0.02" true (abs_float (Stats.mean s -. 0.02) < 0.001)

let test_permutation_is_permutation () =
  let g = Splitmix.create 21 in
  let p = Splitmix.permutation g 100 in
  let seen = Array.make 100 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "all present" true (Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

(* Insert with sequence numbers in insertion order, as the engine does. *)
let pqueue_of ?(tag = fun _ -> 0) ~filler entries =
  let q = Pqueue.create ~filler in
  List.iteri (fun seq (key, v) -> Pqueue.add_tagged q ~key ~seq ~tag:(tag v) v) entries;
  q

let pqueue_drain q =
  let rec go acc = if Pqueue.is_empty q then List.rev acc else go (Pqueue.pop_exn q :: acc) in
  go []

let test_pqueue_ordering () =
  let q = pqueue_of ~filler:"" [ (3.0, "c"); (1.0, "a"); (2.0, "b") ] in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (pqueue_drain q);
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Pqueue.pop_exn: empty") (fun () ->
      ignore (Pqueue.pop_exn q))

let test_pqueue_fifo_ties () =
  let q = pqueue_of ~filler:0 (List.map (fun v -> (5.0, v)) [ 1; 2; 3; 4 ]) in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4 ] (pqueue_drain q)

let test_pqueue_min_peek () =
  let q = pqueue_of ~tag:(fun v -> Char.code v.[0]) ~filler:"" [ (2.0, "x"); (1.0, "y") ] in
  check_float "min key" 1.0 (Pqueue.top_key q);
  Alcotest.(check int) "min seq" 1 (Pqueue.top_seq q);
  Alcotest.(check int) "min tag" (Char.code 'y') (Pqueue.top_tag q);
  Alcotest.(check int) "peek does not remove" 2 (Pqueue.length q)

let test_pqueue_sorted_view () =
  (* Tags and values travel with their keys through every sift. *)
  let q = pqueue_of ~tag:Fun.id ~filler:0 (List.map (fun v -> (float_of_int v, v)) [ 4; 1; 3; 2 ]) in
  let rec view acc =
    if Pqueue.is_empty q then List.rev acc
    else begin
      let k = Pqueue.top_key q and tag = Pqueue.top_tag q in
      let v = Pqueue.pop_exn q in
      view ((k, tag, v) :: acc)
    end
  in
  Alcotest.(check (list (triple (float 0.0) int int)))
    "sorted view"
    [ (1.0, 1, 1); (2.0, 2, 2); (3.0, 3, 3); (4.0, 4, 4) ]
    (view [])

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue: pops are sorted" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun keys ->
      let q = pqueue_of ~filler:0.0 (List.map (fun k -> (k, k)) keys) in
      pqueue_drain q = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_put_find () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c 1 "a";
  Lru.put c 2 "b";
  Alcotest.(check (option string)) "find 1" (Some "a") (Lru.find c 1);
  Lru.put c 3 "c";
  (* 2 was least recently used after find 1 promoted key 1 *)
  Alcotest.(check (option string)) "2 evicted" None (Lru.find c 2);
  Alcotest.(check (option string)) "1 kept" (Some "a") (Lru.find c 1);
  Alcotest.(check (option string)) "3 kept" (Some "c") (Lru.find c 3)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:3 () in
  List.iter (fun k -> Lru.put c k k) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "mru order" [ 3; 2; 1 ] (Lru.keys_mru_order c);
  ignore (Lru.find c 1);
  Alcotest.(check (list int)) "promoted" [ 1; 3; 2 ] (Lru.keys_mru_order c);
  Lru.put c 4 4;
  Alcotest.(check bool) "2 evicted" false (Option.is_some (Lru.peek c 2));
  Alcotest.(check int) "length" 3 (Lru.length c)

let test_lru_peek_no_promote () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c 1 "a";
  Lru.put c 2 "b";
  Alcotest.(check (option string)) "peek" (Some "a") (Lru.peek c 1);
  Lru.put c 3 "c";
  Alcotest.(check bool) "1 evicted despite peek" false (Option.is_some (Lru.peek c 1))

let test_lru_zero_capacity () =
  let c = Lru.create ~capacity:0 () in
  Lru.put c 1 "a";
  Alcotest.(check int) "stays empty" 0 (Lru.length c);
  Alcotest.(check (option string)) "no find" None (Lru.find c 1)

let test_lru_update_existing () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c 1 "a";
  Lru.put c 2 "b";
  Lru.put c 1 "a2";
  Alcotest.(check (option string)) "updated" (Some "a2") (Lru.find c 1);
  Alcotest.(check int) "no duplicate" 2 (Lru.length c)

let test_lru_remove () =
  let c = Lru.create ~capacity:4 () in
  List.iter (fun k -> Lru.put c k k) [ 1; 2; 3 ];
  Lru.remove c 2;
  Alcotest.(check bool) "removed" false (Option.is_some (Lru.peek c 2));
  Alcotest.(check (list int)) "list intact" [ 3; 1 ] (Lru.keys_mru_order c);
  Lru.remove c 42 (* removing absent key is a no-op *)

let prop_lru_capacity_respected =
  QCheck.Test.make ~name:"lru: length never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 16) (small_list (int_bound 50)))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap () in
      List.iter (fun k -> Lru.put c k k) keys;
      Lru.length c <= cap)

let prop_lru_contains_recent =
  QCheck.Test.make ~name:"lru: the most recent distinct keys are present" ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.return 30) (int_bound 20)))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap () in
      List.iter (fun k -> Lru.put c k k) keys;
      (* The last [cap] distinct keys inserted must be retained. *)
      let rec last_distinct acc = function
        | [] -> acc
        | k :: rest ->
          if List.length acc >= cap then acc
          else if List.mem k acc then last_distinct acc rest
          else last_distinct (k :: acc) rest
      in
      let recent = last_distinct [] (List.rev keys) in
      List.for_all (fun k -> Option.is_some (Lru.peek c k)) recent)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.count s);
  check_float "mean" 5.0 (Stats.mean s);
  check_float "min" 2.0 (Stats.min_value s);
  check_float "max" 9.0 (Stats.max_value s);
  check_float "total" 40.0 (Stats.total s)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "empty mean" 0.0 (Stats.mean s);
  Alcotest.check_raises "empty min" (Invalid_argument "Stats.min_value: empty") (fun () ->
      ignore (Stats.min_value s))

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  let xs = [ 1.0; 2.0; 3.0 ] and ys = [ 10.0; 20.0; 30.0; 40.0 ] in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  List.iter (Stats.add whole) (xs @ ys);
  let m = Stats.merge a b in
  Alcotest.(check int) "merged count" (Stats.count whole) (Stats.count m);
  check_float "merged mean" (Stats.mean whole) (Stats.mean m);
  check_float "merged min" (Stats.min_value whole) (Stats.min_value m);
  check_float "merged max" (Stats.max_value whole) (Stats.max_value m)

let test_stats_merge_empty () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add b 5.0;
  let m = Stats.merge a b in
  Alcotest.(check int) "count" 1 (Stats.count m);
  check_float "mean" 5.0 (Stats.mean m)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"stats: min <= mean <= max" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.min_value s <= Stats.mean s +. 1e-9 && Stats.mean s <= Stats.max_value s +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Timeseries                                                          *)
(* ------------------------------------------------------------------ *)

let test_timeseries_binning () =
  let ts = Timeseries.create () in
  Timeseries.add ts 0.2 1.0;
  Timeseries.add ts 0.9 2.0;
  Timeseries.add ts 1.5 5.0;
  Timeseries.incr ts 3.1;
  Alcotest.(check int) "bins" 4 (Timeseries.num_bins ts);
  Alcotest.(check (array (float 1e-9))) "sums" [| 3.0; 5.0; 0.0; 1.0 |] (Timeseries.sums ts);
  Alcotest.(check (array int)) "counts" [| 2; 1; 0; 1 |] (Timeseries.counts ts)

let test_timeseries_means_maxima () =
  let ts = Timeseries.create ~bin:2.0 () in
  Timeseries.add ts 0.0 4.0;
  Timeseries.add ts 1.0 6.0;
  Timeseries.add ts 2.5 10.0;
  Alcotest.(check (array (float 1e-9))) "means" [| 5.0; 10.0 |] (Timeseries.means ts);
  Alcotest.(check (array (float 1e-9))) "maxima" [| 6.0; 10.0 |] (Timeseries.maxima ts)

let test_timeseries_observe_max () =
  let ts = Timeseries.create () in
  Timeseries.observe_max ts 0.1 0.5;
  Timeseries.observe_max ts 0.2 0.9;
  Timeseries.observe_max ts 0.3 0.7;
  Alcotest.(check (array (float 1e-9))) "max kept" [| 0.9 |] (Timeseries.maxima ts)

let test_timeseries_smoothed_max () =
  let ts = Timeseries.create () in
  List.iteri (fun i v -> Timeseries.observe_max ts (float_of_int i +. 0.5) v) [ 1.0; 3.0; 5.0 ];
  let sm = Timeseries.smoothed_max ts ~window:2 in
  Alcotest.(check (array (float 1e-9))) "trailing window mean" [| 1.0; 2.0; 4.0 |] sm

let test_timeseries_rejects_negative_time () =
  let ts = Timeseries.create () in
  Alcotest.check_raises "negative time" (Invalid_argument "Timeseries: negative time")
    (fun () -> Timeseries.add ts (-1.0) 1.0)

let prop_timeseries_total_preserved =
  QCheck.Test.make ~name:"timeseries: sum of bins = sum of samples" ~count:200
    QCheck.(small_list (pair (float_bound_inclusive 50.0) (float_bound_inclusive 10.0)))
    (fun samples ->
      let ts = Timeseries.create () in
      List.iter (fun (t, v) -> Timeseries.add ts t v) samples;
      let total = Array.fold_left ( +. ) 0.0 (Timeseries.sums ts) in
      let expected = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 samples in
      abs_float (total -. expected) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)
(* ------------------------------------------------------------------ *)

let test_tablefmt_render () =
  let out = Tablefmt.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ] in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.index_opt out 'n' <> None);
  (* all lines same width *)
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  let w = String.length (List.hd lines) in
  Alcotest.(check bool) "rectangular" true (List.for_all (fun l -> String.length l = w) lines)

let test_tablefmt_ragged_rows () =
  let out = Tablefmt.render ~header:[ "a"; "b"; "c" ] [ [ "1" ]; [ "1"; "2"; "3"; "4" ] ] in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_tablefmt_csv () =
  let out = Tablefmt.csv ~header:[ "x"; "y" ] [ [ "1"; "2" ] ] in
  Alcotest.(check string) "csv" "x,y\n1,2\n" out;
  Alcotest.check_raises "separator rejected"
    (Invalid_argument "Tablefmt.csv: cell contains separator") (fun () ->
      ignore (Tablefmt.csv ~header:[ "a" ] [ [ "1,2" ] ]))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "terradir_util"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_splitmix_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_splitmix_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_splitmix_split_diverges;
          Alcotest.test_case "int bounds" `Quick test_splitmix_int_bounds;
          Alcotest.test_case "int uniformity" `Quick test_splitmix_int_uniformity;
          Alcotest.test_case "float range" `Quick test_splitmix_float_range;
          Alcotest.test_case "exponential mean" `Quick test_splitmix_exponential_mean;
          Alcotest.test_case "permutation" `Quick test_permutation_is_permutation;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "min peek" `Quick test_pqueue_min_peek;
          Alcotest.test_case "sorted view" `Quick test_pqueue_sorted_view;
        ] );
      qsuite "pqueue-props" [ prop_pqueue_sorted ];
      ( "lru",
        [
          Alcotest.test_case "put/find" `Quick test_lru_put_find;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "peek no promote" `Quick test_lru_peek_no_promote;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          Alcotest.test_case "update existing" `Quick test_lru_update_existing;
          Alcotest.test_case "remove" `Quick test_lru_remove;
        ] );
      qsuite "lru-props" [ prop_lru_capacity_respected; prop_lru_contains_recent ];
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "merge empty" `Quick test_stats_merge_empty;
        ] );
      qsuite "stats-props" [ prop_stats_mean_bounded ];
      ( "timeseries",
        [
          Alcotest.test_case "binning" `Quick test_timeseries_binning;
          Alcotest.test_case "means/maxima" `Quick test_timeseries_means_maxima;
          Alcotest.test_case "observe max" `Quick test_timeseries_observe_max;
          Alcotest.test_case "smoothed max" `Quick test_timeseries_smoothed_max;
          Alcotest.test_case "negative time" `Quick test_timeseries_rejects_negative_time;
        ] );
      qsuite "timeseries-props" [ prop_timeseries_total_preserved ];
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_tablefmt_render;
          Alcotest.test_case "ragged rows" `Quick test_tablefmt_ragged_rows;
          Alcotest.test_case "csv" `Quick test_tablefmt_csv;
        ] );
    ]
