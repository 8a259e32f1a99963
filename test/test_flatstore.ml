(* Equivalence suites for the flat hot-path stores introduced by the
   zero-allocation work: the index-linked LRU against a reference list
   model, the packed peer table and the digest store's sent versions
   against Stdlib [Hashtbl]s, the iteration-driven Bloom digest rebuild
   against the historical list-based one, scratch-buffer and RNG-draw
   parity on Node_map merges —
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

type lru_op = Put of int * int | Find of int | Peek of int | Remove of int | Clear | Set_int of int * int

(* Keys range a little past the capacity, so a table both fills (and
   evicts) and runs below capacity; [Clear] is rare, and the refill after
   it regrows the arrays from nothing.  [Set_int] only for tables with
   the int column ([ints]), at weight [w]. *)
let set_int_ops ~ints ~keys w =
  if ints then [ (w, QCheck.Gen.(map2 (fun k x -> Set_int (k, x)) (int_bound keys) (int_range 1 1000))) ]
  else []

let lru_op_gen ~ints ~keys =
  QCheck.Gen.(
    frequency
      ([
         (8, map2 (fun k v -> Put (k, v)) (int_bound keys) (int_bound 1000));
         (6, map (fun k -> Find k) (int_bound keys));
         (2, map (fun k -> Peek k) (int_bound keys));
         (2, map (fun k -> Remove k) (int_bound keys));
         (1, return Clear);
       ]
      @ set_int_ops ~ints ~keys 4))

let show_op = function
  | Put (k, v) -> Printf.sprintf "Put(%d,%d)" k v
  | Find k -> Printf.sprintf "Find %d" k
  | Peek k -> Printf.sprintf "Peek %d" k
  | Remove k -> Printf.sprintf "Remove %d" k
  | Clear -> "Clear"
  | Set_int (k, x) -> Printf.sprintf "Set_int(%d,%d)" k x

(* The structure holds after every operation ({!Lru.check}: the index,
   and a recency walk over exactly [length] distinct slots), and the
   allocation-free views agree with the model: the cursor walks (key,
   value) pairs in MRU order and [keys_into] yields the key set. *)
let views_agree lru (model : Model.t) =
  let n = Lru.length lru in
  let rec walk slot = if slot < 0 then [] else slot :: walk (Lru.next lru slot) in
  let dst = Array.make (max 1 n) (-1) in
  let count = Lru.keys_into lru dst in
  Lru.check lru = None
  && List.map (fun slot -> (Lru.key_at lru slot, Lru.value_at lru slot)) (walk (Lru.first lru)) = model.Model.items
  && List.sort Int.compare (Array.to_list (Array.sub dst 0 count)) = List.sort Int.compare (Model.keys model)

(* Remove-heavy: fill past the capacity, then mostly removes, so long
   runs of backward shifts in the index come between the puts that
   refill it. *)
let lru_drain_gen ~ints ~cap ~keys =
  QCheck.Gen.(
    let fill = list_repeat (cap + (cap / 2)) (map2 (fun k v -> Put (k, v)) (int_bound keys) (int_bound 1000)) in
    let drain =
      list_size (int_bound (4 * cap))
        (frequency
           ([
              (8, map (fun k -> Remove k) (int_bound keys));
              (2, map2 (fun k v -> Put (k, v)) (int_bound keys) (int_bound 1000));
              (2, map (fun k -> Find k) (int_bound keys));
            ]
           @ set_int_ops ~ints ~keys 2))
    in
    map2 ( @ ) fill drain)

(* Capacities 0, 1, 5 and 64 besides the small range: 64 grows the
   arrays 4 → 64 and the index 8 → 128 under the model.  One case in
   three is remove-heavy. *)
let lru_case_gen ~ints =
  QCheck.Gen.(
    frequency [ (4, int_range 0 8); (2, oneofl [ 0; 1; 5; 64 ]) ] >>= fun cap ->
    let keys = max 20 (cap + (cap / 2)) in
    map
      (fun ops -> (cap, ops))
      (frequency
         [
           (2, list_size (int_bound (max 60 (4 * cap))) (lru_op_gen ~ints ~keys));
           (1, lru_drain_gen ~ints ~cap ~keys);
         ]))

let print_case (cap, l) = Printf.sprintf "cap %d: %s" cap (String.concat "; " (List.map show_op l))

(* One step on the LRU and the model; false when a read disagrees.
   [ints] models the int column: key -> int, 0 for a key put new, kept
   by a put of a held key, and dropped with the key by an eviction,
   [Remove] or [Clear]. *)
let lru_step lru model ints op =
  match op with
  | Put (k, v) ->
    if not (List.mem_assoc k model.Model.items) then Hashtbl.replace ints k 0;
    Lru.put lru k v;
    Model.put model k v;
    Hashtbl.filter_map_inplace (fun k x -> if List.mem_assoc k model.Model.items then Some x else None) ints;
    true
  | Find k -> Lru.find lru k = Model.find model k
  | Peek k -> Lru.peek lru k = Model.peek model k
  | Remove k ->
    Lru.remove lru k;
    Model.remove model k;
    Hashtbl.remove ints k;
    true
  | Clear ->
    Lru.clear lru;
    Model.clear model;
    Hashtbl.reset ints;
    true
  | Set_int (k, x) ->
    (match Lru.slot lru k with -1 -> () | slot -> Lru.set_int_at lru slot x);
    if Hashtbl.mem ints k then Hashtbl.replace ints k x;
    true

let run_lru_case ~ints (cap, ops) =
  let lru = Lru.create ~ints ~capacity:cap () in
  let model = Model.create cap and model_ints = Hashtbl.create 16 in
  let ints_agree () =
    (not ints)
    || List.for_all
         (fun (k, _) -> Lru.int_at lru (Lru.slot lru k) = Hashtbl.find model_ints k)
         model.Model.items
  in
  List.for_all (fun op -> lru_step lru model model_ints op && views_agree lru model && ints_agree ()) ops
  && Lru.keys_mru_order lru = Model.keys model
  && Lru.length lru = List.length (Model.keys model)

let prop_lru_model =
  QCheck.Test.make ~name:"flat LRU ≡ list model (ops, results, MRU order, structure)"
    ~count:500
    (QCheck.make ~print:print_case (lru_case_gen ~ints:false))
    (run_lru_case ~ints:false)

(* With the int column: each key's int follows it through eviction, the
   swap-remove of [remove] and [clear]. *)
let prop_lru_ints_model =
  QCheck.Test.make ~name:"flat LRU int column follows its key (eviction, remove, clear)" ~count:300
    (QCheck.make ~print:print_case (lru_case_gen ~ints:true))
    (run_lru_case ~ints:true)

let test_lru_eviction_order () =
  let lru = Lru.create ~capacity:3 () in
  List.iter (fun k -> Lru.put lru k (10 * k)) [ 1; 2; 3 ];
  ignore (Lru.find lru 1);
  (* 1 promoted: inserting 4 must evict 2, the LRU *)
  Lru.put lru 4 40;
  Alcotest.(check (list int)) "MRU order after eviction" [ 4; 1; 3 ] (Lru.keys_mru_order lru);
  Alcotest.(check bool) "evicted key gone" false (Option.is_some (Lru.peek lru 2));
  (* backward shift: remove then reinsert keeps the index consistent *)
  Lru.remove lru 3;
  Lru.put lru 3 30;
  Lru.put lru 2 20;
  Alcotest.(check (list int)) "after churn" [ 2; 3; 4 ] (Lru.keys_mru_order lru)

(* Links are 2-byte positions: a 65,535-entry LRU fills, promotes and
   evicts like a small one, and one entry more is rejected. *)
let test_lru_capacity_bound () =
  let n = Lru.max_capacity in
  Alcotest.check_raises "capacity 65,536" (Invalid_argument "Lru.create: capacity outside [0, 65535]") (fun () ->
      ignore (Lru.create ~capacity:65_536 () : int Lru.t));
  let lru = Lru.create ~capacity:n () in
  for k = 0 to n - 1 do
    Lru.put lru k k
  done;
  Alcotest.(check (option int)) "last position" (Some (n - 1)) (Lru.find lru (n - 1));
  ignore (Lru.find lru 0 : int option);
  (* Evicts 1 and 2, the least recent now. *)
  Lru.put lru n n;
  Lru.put lru (n + 1) (n + 1);
  Alcotest.(check int) "full" n (Lru.length lru);
  Alcotest.(check (list (option int))) "evicted" [ None; None ] [ Lru.peek lru 1; Lru.peek lru 2 ];
  Alcotest.(check (list int)) "MRU prefix" [ n + 1; n; 0; n - 1; n - 2 ]
    (List.filteri (fun i _ -> i < 5) (Lru.keys_mru_order lru));
  Alcotest.(check (option string)) "structure" None (Lru.check lru)

(* Links whose tail points back at the head form a loop.  Every recency
   walk counts its steps, so each must raise rather than hang: [iter] and
   [keys_mru_order]; [check] reports it. *)
let test_lru_looped_links () =
  let corrupted () =
    let lru = Lru.create ~capacity:64 () in
    for k = 0 to 5 do
      Lru.put lru k 0
    done;
    let rec tail slot = if Lru.next lru slot < 0 then slot else tail (Lru.next lru slot) in
    let head = Lru.first lru in
    (* Two-byte cells, [prev] then [next] per position; slot [s] sits at
       position [s + 1], past the sentinel at 0, and a link holds a
       position. *)
    Bytes.set_uint16_ne (Lru.links lru) (((2 * (tail head + 1)) + 1) * 2) (head + 1);
    lru
  in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s walked looped links without raising" what
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (what ^ " names the LRU") true (String.starts_with ~prefix:"Lru:" msg)
  in
  raises "iter" (fun () -> Lru.iter (corrupted ()) ~f:(fun _ _ -> ()));
  raises "keys_mru_order" (fun () -> ignore (Lru.keys_mru_order (corrupted ()) : int list));
  Alcotest.(check bool) "check reports the loop" true (Lru.check (corrupted ()) <> None)

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
   entries; long runs of removes shift probe runs back. *)
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

(* Remove-heavy: add most of the key range, then mostly remove, so long
   runs of backward shifts come between the adds that refill the
   index. *)
let intmap_drain_gen ~keys =
  QCheck.Gen.(
    let fill = list_repeat keys (map2 (fun k v -> I_add (k, v)) (int_bound keys) (int_bound 1000)) in
    let drain =
      list_size (int_bound (3 * keys))
        (frequency
           [
             (8, map (fun k -> I_remove k) (int_bound keys));
             (1, return I_remove_last);
             (2, map2 (fun k v -> I_add (k, v)) (int_bound keys) (int_bound 1000));
             (2, map (fun k -> I_find k) (int_bound keys));
           ])
    in
    map2 ( @ ) fill drain)

let find_opt t k = match Intmap.slot t k with -1 -> None | i -> Some (Intmap.value_at t i)

(* The model binds a key to its value and its column cells.  An add
   writes cells derived from key and value; a replace keeps a bound key's
   cells, and a new key starts at 0 in both. *)
let cells_of k v = ((k * 7) + v, float_of_int (k - v) +. 0.25)

(* The index passes {!Intmap.check} and agrees with the table: every
   slot's key resolves to that slot and carries the model's value and
   cells, and the slots hold exactly the model's keys. *)
let intmap_agrees t model =
  let n = Intmap.length t in
  let dense =
    List.init n (fun i ->
        (Intmap.key_at t i, (Intmap.value_at t i, (Intmap.int_at t i, Float.Array.get (Intmap.floats t) i))))
  in
  Intmap.check t = None
  && n = IM.cardinal model
  && List.for_all (fun i -> Intmap.slot t (Intmap.key_at t i) = i) (List.init n Fun.id)
  && List.sort compare dense = IM.bindings model
  && IM.for_all (fun k (v, _) -> find_opt t k = Some v && Intmap.mem t k) model

let prop_intmap_model =
  QCheck.Test.make ~name:"intmap ≡ Map (add/replace/remove/find/iter, dense index, columns)"
    ~count:300
    (QCheck.make
       ~print:(fun (keys, l) ->
         Printf.sprintf "keys %d: %s" keys (String.concat "; " (List.map show_intmap_op l)))
       QCheck.Gen.(
         oneofl [ 4; 40; 200 ] >>= fun keys ->
         map
           (fun ops -> (keys, ops))
           (frequency
              [
                (2, list_size (int_bound 400) (intmap_op_gen ~keys));
                (1, intmap_drain_gen ~keys);
              ])))
    (fun (_, ops) ->
      let t = Intmap.create ~ints:true ~floats:true () in
      let model = ref IM.empty in
      List.for_all
        (fun op ->
          (match op with
          | I_add (k, v) -> (
            match Intmap.add t k v with
            | () ->
              let fresh = not (IM.mem k !model) in
              let i = Intmap.length t - 1 in
              let ((n, x) as cells) = cells_of k v in
              Intmap.set_int_at t i n;
              Float.Array.set (Intmap.floats t) i x;
              model := IM.add k (v, cells) !model;
              fresh
            | exception Invalid_argument _ -> IM.mem k !model)
          | I_replace (k, v) ->
            Intmap.replace t k v;
            let cells = match IM.find_opt k !model with Some (_, c) -> c | None -> (0, 0.0) in
            model := IM.add k (v, cells) !model;
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
          | I_find k -> find_opt t k = Option.map fst (IM.find_opt k !model)
          | I_iter ->
            let seen = ref [] in
            Intmap.iter t ~f:(fun k v -> seen := (k, v) :: !seen);
            let folded = Intmap.fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) in
            List.sort compare !seen = IM.bindings (IM.map fst !model) && folded = !seen)
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
  Alcotest.(check (option int)) "nothing found" None (find_opt t 7);
  Intmap.add t 7 1;
  Alcotest.(check (option int)) "refills" (Some 1) (find_opt t 7)

(* Past 2^16 index positions the index widens its cells (at 32,769
   entries), and 70,000 entries take it to 2^18 positions.  Every key
   resolves to its slot before and after removing every other one. *)
let test_intmap_wide_index () =
  let n = 70_000 in
  let key i = (i * 7919) + 3 in
  let t = Intmap.create () in
  for i = 0 to n - 1 do
    Intmap.add t (key i) i
  done;
  let resolves i = find_opt t (key i) = Some i && Intmap.key_at t (Intmap.slot t (key i)) = key i in
  Alcotest.(check int) "all added" n (Intmap.length t);
  Alcotest.(check bool) "every key resolves" true (List.for_all resolves (List.init n Fun.id));
  for i = 0 to n - 1 do
    if i land 1 = 0 then Intmap.remove t (key i)
  done;
  Alcotest.(check int) "half left" (n / 2) (Intmap.length t);
  Alcotest.(check bool) "survivors resolve, removed keys are gone" true
    (List.for_all
       (fun i -> if i land 1 = 0 then Intmap.slot t (key i) = -1 else resolves i)
       (List.init n Fun.id));
  Alcotest.(check bool) "absent keys stay absent" true
    (List.for_all (fun i -> not (Intmap.mem t (key i + 1))) (List.init 1000 Fun.id));
  Alcotest.(check (option string)) "structure" None (Intmap.check t)

(* ------------------------------------------------------------------ *)
(* Digest rebuild: list path vs iteration path                         *)
(* ------------------------------------------------------------------ *)
(* Packed_table vs Hashtbl                                             *)
(* ------------------------------------------------------------------ *)

type packed_op =
  | P_add of int * int * float
  | P_set of int * int
  | P_remove of int
  | P_find of int
  | P_clear

let show_packed_op = function
  | P_add (k, p, f) -> Printf.sprintf "Add(%d,%d,%g)" k p f
  | P_set (k, p) -> Printf.sprintf "Set(%d,%d)" k p
  | P_remove k -> Printf.sprintf "Remove %d" k
  | P_find k -> Printf.sprintf "Find %d" k
  | P_clear -> "Clear"

let max_payload = (1 lsl Packed_table.payload_bits) - 1

let max_packed_key = (1 lsl Packed_table.key_bits) - 2

(* Keys from a range of [keys] plus the extreme ones; payloads up to the
   largest.  Long runs of adds grow the table; removes shift probe runs
   back, across the array's wrap-around too. *)
let packed_op_gen ~keys =
  QCheck.Gen.(
    let key = frequency [ (19, int_bound keys); (1, oneofl [ 0; max_packed_key ]) ] in
    let payload = frequency [ (9, int_bound 1000); (1, return max_payload) ] in
    frequency
      [
        (40, map3 (fun k p f -> P_add (k, p, float_of_int f /. 8.0)) key payload (int_bound 100));
        (10, map2 (fun k p -> P_set (k, p)) key payload);
        (16, map (fun k -> P_remove k) key);
        (10, map (fun k -> P_find k) key);
        (1, return P_clear);
      ])

(* Every model key resolves to a slot holding its payload and float, and
   a sweep of the slots finds exactly the model's keys. *)
let packed_agrees t (model : (int, int * float) Hashtbl.t) =
  let swept = ref [] in
  for i = 0 to Packed_table.capacity t - 1 do
    let k = Packed_table.key_at t i in
    if k >= 0 then swept := k :: !swept
  done;
  Packed_table.length t = Hashtbl.length model
  && List.sort compare !swept = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model [])
  && Hashtbl.fold
       (fun k (p, f) ok ->
         ok
         &&
         let i = Packed_table.find t k in
         i >= 0 && Packed_table.payload_at t i = p && Float.Array.get (Packed_table.floats t) i = f)
       model true

let prop_packed_model =
  QCheck.Test.make ~name:"packed table ≡ Hashtbl (add/set/remove/find/clear, floats)" ~count:300
    (QCheck.make
       ~print:(fun (keys, l) ->
         Printf.sprintf "keys %d: %s" keys (String.concat "; " (List.map show_packed_op l)))
       QCheck.Gen.(
         oneofl [ 4; 40; 300 ] >>= fun keys ->
         map (fun ops -> (keys, ops)) (list_size (int_bound 600) (packed_op_gen ~keys))))
    (fun (_, ops) ->
      let t = Packed_table.create ~floats:true () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
          | P_add (k, p, f) -> (
            match Packed_table.add t k p with
            | i ->
              Float.Array.set (Packed_table.floats t) i f;
              let fresh = not (Hashtbl.mem model k) in
              Hashtbl.replace model k (p, f);
              fresh
            | exception Invalid_argument _ -> Hashtbl.mem model k)
          | P_set (k, p) -> (
            match (Packed_table.find t k, Hashtbl.find_opt model k) with
            | -1, None -> true
            | i, Some (_, f) when i >= 0 ->
              Packed_table.set_payload_at t i p;
              Hashtbl.replace model k (p, f);
              true
            | _ -> false)
          | P_remove k ->
            Packed_table.remove t k;
            Hashtbl.remove model k;
            true
          | P_find k -> (Packed_table.find t k >= 0) = Hashtbl.mem model k
          | P_clear ->
            Packed_table.clear t;
            Hashtbl.reset model;
            true)
          && packed_agrees t model)
        ops)

let test_packed_bounds () =
  let t = Packed_table.create () in
  let rejects name f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "negative key" (fun () -> Packed_table.add t (-1) 0);
  rejects "key past 24 bits" (fun () -> Packed_table.add t (max_packed_key + 1) 0);
  rejects "payload past 39 bits" (fun () -> Packed_table.add t 1 (max_payload + 1));
  let i = Packed_table.add t max_packed_key max_payload in
  Alcotest.(check int) "largest key round-trips" max_packed_key (Packed_table.key_at t i);
  Alcotest.(check int) "largest payload round-trips" max_payload (Packed_table.payload_at t i)

(* [Digest_store]'s sent versions, one packed int per peer, against the
   [(int, int) Hashtbl.t] they were. *)
let prop_sent_model =
  QCheck.Test.make ~name:"digest sent versions ≡ Hashtbl" ~count:200
    QCheck.(
      make
        ~print:Print.(list (pair int int))
        Gen.(list_size (int_bound 1500) (pair (int_bound 700) (frequency [ (9, int_bound 50); (1, return max_payload) ]))))
    (fun notes ->
      let d = Digest_store.create ~max_remote:4 () in
      let model = Hashtbl.create 64 in
      let last peer = Option.value ~default:0 (Hashtbl.find_opt model peer) in
      List.for_all
        (fun (peer, version) ->
          let before = Digest_store.last_version_sent d ~peer = last peer in
          Digest_store.note_version_sent d ~peer version;
          Hashtbl.replace model peer version;
          before && Digest_store.last_version_sent d ~peer = version)
        notes
      && List.for_all
           (fun peer -> Digest_store.last_version_sent d ~peer = last peer)
           (List.init 701 Fun.id))

(* Remote digest versions sit in the LRU's int column and move with
   their entry when an eviction swap-removes.  One store takes digests
   from more servers than it holds, older and newer versions interleaved,
   with [test_remote] promotions between; after every call each server's
   [remote_version] and the [remote_count] match a list model, MRU first,
   in which a newer version replaces and promotes, an older or equal one
   is ignored, and a new server evicts the least recently used. *)
type digest_op = Record of int * int | Consult of int

let prop_remote_versions =
  let servers = 100 and cap = 64 (* a server's max_remote_digests *) in
  QCheck.Test.make ~name:"remote digest versions ≡ list model (newer replaces, LRU evicts)" ~count:50
    QCheck.(
      make
        ~print:
          Print.(
            list (function
              | Record (s, v) -> Printf.sprintf "Record(%d,%d)" s v
              | Consult s -> Printf.sprintf "Consult %d" s))
        Gen.(
          list_size (int_bound 1500)
            (frequency
               [
                 (3, map2 (fun s v -> Record (s, v)) (int_bound (servers - 1)) (int_range 1 30));
                 (1, map (fun s -> Consult s) (int_bound (servers - 1)));
               ])))
    (fun ops ->
      let d = Digest_store.create ~max_remote:cap () in
      let bloom = Terradir_bloom.Bloom.create ~expected:1 () in
      let model = ref [] in
      let promote server version = model := (server, version) :: List.remove_assoc server !model in
      let step = function
        | Record (server, version) ->
          Digest_store.record_remote d ~server ~version bloom;
          (match List.assoc_opt server !model with
          | Some held when held >= version -> ()
          | Some _ -> promote server version
          | None ->
            if List.length !model = cap then model := List.filteri (fun i _ -> i < cap - 1) !model;
            promote server version);
          true
        | Consult server ->
          let held = List.assoc_opt server !model in
          Option.iter (promote server) held;
          Option.is_some (Digest_store.test_remote d ~server ~node:0) = Option.is_some held
      in
      List.for_all
        (fun op ->
          step op
          && Digest_store.remote_count d = List.length !model
          && List.for_all
               (fun server -> Digest_store.remote_version d ~server = List.assoc_opt server !model)
               (List.init servers Fun.id))
        ops)

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
        :: Alcotest.test_case "capacity bound: 65,535 fills and evicts" `Quick test_lru_capacity_bound
        :: Alcotest.test_case "looped links raise, never hang" `Quick test_lru_looped_links
        :: List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_lru_model; prop_lru_ints_model ] );
      ( "intmap",
        Alcotest.test_case "downward removal" `Quick test_intmap_downward_removal
        :: Alcotest.test_case "wide index past 65,535 entries" `Quick test_intmap_wide_index
        :: List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_intmap_model ] );
      ( "packed",
        Alcotest.test_case "key and payload bounds" `Quick test_packed_bounds
        :: List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_packed_model ] );
      ( "digests",
        List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_digest_rebuild; prop_sent_model; prop_remote_versions ] );
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
