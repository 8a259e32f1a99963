(* Tests for the promotion budget (DESIGN §16): the steady-state message
   path may keep nothing past a minor collection that the protocol does
   not keep.  Native allocation pins on the per-event helpers, the pooled
   messages' event thunks, the known-load table behind [min_load_peer],
   and the lazily built local digest. *)

open Terradir_util
open Terradir_namespace
open Terradir
open Types
module Bloom = Terradir_bloom.Bloom

let tree = Build.balanced ~arity:2 ~levels:4 (* 31 nodes *)

let config = { Config.default with Config.num_servers = 8; r_fact = 2.0; cache_slots = 8 }

(* Bootstrap maps as [Cluster.create] builds them: [n] owned by [s], every
   other node by [node mod 8]. *)
let add_owned s n =
  Server.add_owned s n ~owner_map:(fun v ->
      let server = if v = n then s.Server.id else v mod 8 in
      Node_map.singleton ~is_owner:true ~server ~stamp:0.0 ())

let server ?(id = 0) nodes =
  let s = Server.create ~id ~config ~tree ~rng:(Splitmix.create (id + 100)) () in
  List.iter (add_owned s) nodes;
  s

(* ---- allocation pins ---- *)

(* Minor words allocated by one call of [f], after a warm-up call (the
   first may grow a table).  [Gc.minor_words] itself allocates nothing in
   native code. *)
let words_of f =
  f ();
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before

(* Bytecode boxes every float and allocates its own frames, so the pins
   only mean something natively. *)
let pin name f =
  if Sys.backend_type = Sys.Native then
    Alcotest.(check (float 0.0)) (name ^ " allocates nothing") 0.0 (words_of f)

let map_of servers =
  Node_map.of_entries ~max:8
    (List.mapi (fun i server -> { Node_map.server; is_owner = i = 0; stamp = float_of_int i }) servers)

let test_pin_mem () =
  let m = map_of [ 4; 9; 2; 7; 11 ] in
  pin "Node_map.mem (hit)" (fun () -> ignore (Node_map.mem m 7 : bool));
  pin "Node_map.mem (miss)" (fun () -> ignore (Node_map.mem m 5 : bool))

let test_pin_merge_subsumed () =
  let a = map_of [ 4; 9; 2; 7; 11 ] in
  let b = Node_map.of_entries ~max:8 [ { Node_map.server = 2; is_owner = false; stamp = 1.0 } ] in
  let rng = Splitmix.create 1 in
  Alcotest.(check bool) "subsumed merge returns the map itself" true (Node_map.merge ~max:8 rng a b == a);
  pin "merge of a subsumed map" (fun () -> ignore (Node_map.merge ~max:8 rng a b : Node_map.t))

let test_pin_note_peer_load () =
  let s = server [ 1 ] in
  Server.note_peer_load s 5 0.5;
  pin "note_peer_load for a known peer" (fun () -> Server.note_peer_load s 5 0.25);
  Alcotest.(check (float 0.0)) "sum tracks the cell" 0.25 (Server.peer_load_sum s)

let test_pin_touch_node () =
  let s = server [ 1; 6 ] in
  pin "touch_node on a hosted node" (fun () -> Server.touch_node s 6 ~now:0.5);
  match Server.find_hosted s 6 with
  | Some h -> Alcotest.(check (float 0.0)) "last use recorded" 0.5 h.Server.h_last_used
  | None -> Alcotest.fail "node 6 not hosted"

(* The event heap at depth: one pop and one add, the engine's hold step.
   The key is boxed once, here: a float computed per call would be boxed
   by the call itself, outside [Pqueue]. *)
let test_pin_pqueue_hold () =
  let q = Pqueue.create ~filler:() and rng = Splitmix.create 5 in
  for seq = 0 to 4095 do
    Pqueue.add_tagged q ~key:(Splitmix.float rng 1.0) ~seq ~tag:seq ()
  done;
  let key = Sys.opaque_identity 2.0 and seq = ref 4096 in
  pin "Pqueue pop + add at 4096 entries" (fun () ->
      Pqueue.pop_exn q;
      Pqueue.add_tagged q ~key ~seq:!seq ~tag:0 ();
      incr seq);
  Alcotest.(check int) "depth held" 4096 (Pqueue.length q)

(* At most [n] words: a draw that returns a float boxes its result at
   the call, since [Splitmix.float] is not inlined here. *)
let pin_at_most name n f =
  if Sys.backend_type = Sys.Native then begin
    let words = words_of f in
    if words > n then Alcotest.failf "%s allocates %.0f words, more than %.0f" name words n
  end

let test_pin_splitmix () =
  let g = Splitmix.create 11 in
  pin "Splitmix.int" (fun () -> ignore (Sys.opaque_identity (Splitmix.int g 1000) : int));
  (* A bound that rejects about half of all draws: the loop runs. *)
  pin "Splitmix.int (rejecting)" (fun () ->
      ignore (Sys.opaque_identity (Splitmix.int g ((1 lsl 61) + 1)) : int));
  pin_at_most "Splitmix.float" 2.0 (fun () -> ignore (Sys.opaque_identity (Splitmix.float g 1.0) : float))

(* New keys into a full LRU: every put evicts, and each eviction shifts
   the rest of its probe run back in the index. *)
let test_pin_lru_churn () =
  let lru = Lru.create ~capacity:16 () and next = ref 0 in
  let put () =
    Lru.put lru !next !next;
    incr next
  in
  for _ = 1 to 64 do
    put ()
  done;
  pin "Lru put of a new key under eviction churn" (fun () ->
      for _ = 1 to 1000 do
        put ()
      done);
  Alcotest.(check int) "full" 16 (Lru.length lru);
  Alcotest.(check (list int)) "the newest keys, MRU first"
    (List.init 16 (fun i -> !next - 1 - i))
    (Lru.keys_mru_order lru)

let hosted_map s node = Intmap.value_at s.Server.hosted (Intmap.slot s.Server.hosted node)

(* A path entry the server already knows costs nothing, wherever the
   node's map lives: hosted, a neighbor context or the cache. *)
let test_pin_merge_known () =
  let s = server [ 1; 6 ] in
  let hosted = hosted_map s 6 in
  let nb = Intmap.key_at s.Server.neighbor_maps 0 in
  let context = Server.neighbor_map s nb in
  Alcotest.(check bool) "node 30 is neither hosted nor a context" false
    (Server.hosts s 30 || Intmap.mem s.Server.neighbor_maps 30);
  let cached = map_of [ 4; 9 ] in
  Server.merge_into_known_map s 30 cached ~now:0.5;
  let cached_map () = Option.get (Cache.peek s.Server.cache ~node:30) in
  let before = cached_map () in
  Alcotest.(check bool) "the context is not empty" false (Node_map.is_empty context);
  pin "merge_into_known_map, hosted" (fun () -> Server.merge_into_known_map s 6 hosted ~now:0.5);
  pin "merge_into_known_map, neighbor" (fun () -> Server.merge_into_known_map s nb context ~now:0.5);
  pin "merge_into_known_map, cached" (fun () -> Server.merge_into_known_map s 30 cached ~now:0.5);
  Alcotest.(check bool) "hosted map kept" true (hosted_map s 6 == hosted);
  Alcotest.(check bool) "context kept" true (Server.neighbor_map s nb == context);
  Alcotest.(check bool) "cached map kept" true (cached_map () == before)

let test_pin_slot_accessors () =
  let s = server [ 1; 6 ] in
  let nb = Intmap.key_at s.Server.neighbor_maps 0 in
  pin "Server.neighbor_map (hit)" (fun () -> ignore (Sys.opaque_identity (Server.neighbor_map s nb)));
  pin "Server.neighbor_map (miss)" (fun () -> ignore (Sys.opaque_identity (Server.neighbor_map s 30)));
  let i = Intmap.slot s.Server.hosted 6 in
  pin "Intmap.value_at" (fun () -> ignore (Sys.opaque_identity (Intmap.value_at s.Server.hosted i)));
  pin "Server.hosted_kind_at" (fun () -> ignore (Sys.opaque_identity (Server.hosted_kind_at s i)));
  pin "Server.meta_version_at" (fun () -> ignore (Sys.opaque_identity (Server.meta_version_at s i) : int));
  pin "Server.set_meta_version_at" (fun () -> Server.set_meta_version_at s i 5);
  Alcotest.(check int) "version set" 5 (Server.meta_version_at s i);
  Alcotest.(check bool) "kind kept" true (Server.hosted_kind_at s i = Server.Owned)

let test_pin_table_lookups () =
  let t = Intmap.create () and lru = Lru.create ~capacity:16 () in
  for k = 0 to 11 do
    Intmap.add t (k * 7) k;
    Lru.put lru (k * 7) k
  done;
  pin "Intmap.slot (hit)" (fun () -> ignore (Sys.opaque_identity (Intmap.slot t 35) : int));
  pin "Intmap.slot (miss)" (fun () -> ignore (Sys.opaque_identity (Intmap.slot t 36) : int));
  pin "Lru.slot (hit)" (fun () -> ignore (Sys.opaque_identity (Lru.slot lru 35) : int));
  pin "Lru.slot (miss)" (fun () -> ignore (Sys.opaque_identity (Lru.slot lru 36) : int))

(* The event heap hands a popped value back and keeps no reference to
   it.  Closures, each over a fresh block, go in with [keys] (all
   distinct) and the [pops] least come out; a full collection must
   reclaim each popped one and no other.  Filling and popping happen in
   functions of their own, so no frame of the test holds a closure. *)
let pops_pin_nothing keys ~pops =
  let n = List.length keys in
  let q = Pqueue.create ~filler:ignore and w = Weak.create n in
  let[@inline never] fill () =
    List.iteri
      (fun i key ->
        let cell = ref i in
        let f () = incr cell in
        Weak.set w i (Some f);
        Pqueue.add_tagged q ~key ~seq:i ~tag:0 f)
      keys
  in
  let[@inline never] pop () = ignore (Pqueue.pop_exn q : unit -> unit) in
  fill ();
  for _ = 1 to pops do
    pop ()
  done;
  Gc.full_major ();
  let label = String.concat ", " (List.map string_of_float keys) in
  List.iteri
    (fun i key ->
      let popped = List.length (List.filter (fun k -> k < key) keys) < pops in
      Alcotest.(check bool)
        (Printf.sprintf "keys %s: entry %g %s" label key (if popped then "collected" else "held"))
        (not popped) (Weak.check w i))
    keys;
  Alcotest.(check int) "the rest left" (n - pops) (Pqueue.length q)

(* The first case pins growth: spare slots hold the filler, not the first
   value added.  In the second, keys 2, 0, 1, the first pop moves key 1's
   entry from slot 2 to the root: a copy left in slot 2 would outlive key
   1's own pop, the second. *)
let test_pop_pins_nothing () =
  pops_pin_nothing [ 0.0; 1.0; 2.0 ] ~pops:2;
  pops_pin_nothing [ 2.0; 0.0; 1.0 ] ~pops:2;
  pops_pin_nothing [ 2.0; 0.0; 1.0 ] ~pops:3

(* ---- message thunks ---- *)

let cluster () = Cluster.create ~monitor:false ~config ~tree ()

let alloc c = Cluster.alloc_msg c ~from:0 ~to_:1 ~load:0.0 ~digest_version:0 ~digest:None null_payload

let test_recycled_thunks () =
  let c = cluster () in
  let m = alloc c in
  let deliver = m.msg_deliver and served = m.msg_served in
  Cluster.free_msg c m;
  let m' = alloc c in
  Alcotest.(check bool) "the pool hands the record back" true (m' == m);
  Alcotest.(check bool) "msg_deliver is the same closure" true (m'.msg_deliver == deliver);
  Alcotest.(check bool) "msg_served is the same closure" true (m'.msg_served == served);
  Alcotest.(check int) "recipient set on reuse" 1 m'.msg_to

let raises_invalid name f =
  match f () with
  | () -> Alcotest.failf "%s: fired on a freed record without raising" name
  | exception Invalid_argument _ -> ()

let test_freed_thunks_raise () =
  let c = cluster () in
  let m = alloc c in
  Cluster.free_msg c m;
  Alcotest.(check int) "freed record is scrubbed" (-1) m.msg_to;
  raises_invalid "msg_deliver" m.msg_deliver;
  raises_invalid "msg_served" m.msg_served

(* A send that piggybacks the digest carries the store's one [Some] box
   for the current filter: it allocates exactly what the same send
   without a digest does.  Both sends take a pooled record and queue one
   event in a heap with room for it. *)
let test_pin_digest_send () =
  if Sys.backend_type = Sys.Native then begin
    let c = cluster () in
    let d = c.Cluster.servers.(0).Server.digests in
    let payload = Load_probe { session = 0 } in
    let send () = c.Cluster.core.Protocol.transport.Protocol.send ~from:0 ~to_:1 payload in
    let pooled = List.init 4 (fun _ -> alloc c) in
    List.iter (Cluster.free_msg c) pooled;
    send ();
    send ();
    Digest_store.rebuild_local d ~hosted:[ 0; 8; 16 ];
    ignore (Digest_store.local d : Bloom.t);
    let words f =
      let before = Gc.minor_words () in
      f ();
      Gc.minor_words () -. before
    in
    let carrying = words send in
    Alcotest.(check int) "the send carried the new version" (Digest_store.local_version d)
      (Digest_store.last_version_sent d ~peer:1);
    let plain = words send in
    Alcotest.(check (float 0.0)) "a digest costs the send no words" plain carrying;
    Alcotest.(check bool) "one box per filter" true
      (Digest_store.shared_local d == Digest_store.shared_local d)
  end

(* ---- known-load cells keep min_load_peer's order ---- *)

type op = Note of int * int | Forget of int

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 120)
      (frequency
         [
           (4, map2 (fun p l -> Note (p, l)) (int_range 0 40) (int_range 0 4));
           (1, map (fun p -> Forget p) (int_range 0 40));
         ]))

let print_op = function
  | Note (p, l) -> Printf.sprintf "Note(%d,%d)" p l
  | Forget p -> Printf.sprintf "Forget %d" p

(* The historical table: a Stdlib [(int, float) Hashtbl.t] updated with
   [replace], folded with the same tie-break. *)
let reference_min tbl ~exclude =
  (* bucket order on purpose: it is what the server must reproduce *)
  Hashtbl.fold
    (fun peer load best ->
      if List.mem peer exclude then best
      else match best with Some (_, l) when l <= load -> best | _ -> Some (peer, load))
    tbl None

let prop_min_load_peer =
  QCheck.Test.make ~count:300 ~name:"min_load_peer = Stdlib (int, float) Hashtbl reference"
    (QCheck.make ~print:(QCheck.Print.list print_op) gen_ops)
    (fun ops ->
      let self = 3 in
      let s = server ~id:self [] in
      let ref_tbl : (int, float) Hashtbl.t = Hashtbl.create 32 in
      let same () =
        List.for_all
          (fun exclude -> Server.min_load_peer s ~exclude = reference_min ref_tbl ~exclude)
          [ [ self ]; [ self; 0; 1; 2 ]; [] ]
      in
      List.for_all
        (fun op ->
          (match op with
          | Note (p, l) ->
            (* quarter steps: equal loads are common, so ties are exercised *)
            let load = float_of_int l /. 4.0 in
            Server.note_peer_load s p load;
            if p <> self then Hashtbl.replace ref_tbl p load
          | Forget p ->
            Server.forget_peer s p;
            Hashtbl.remove ref_tbl p);
          same ())
        ops)

(* The order [Hashtbl.fold] visits the reference in, and the order the
   server's replay claims for it: buckets ascending under the replayed
   bucket count, newest insertion first within a bucket. *)
let reference_order tbl = List.rev (Hashtbl.fold (fun p l acc -> (p, l) :: acc) tbl [])

let replayed_order s =
  let kl = s.Server.known_loads in
  let loads = Packed_table.floats kl in
  let rows = ref [] in
  for i = 0 to Packed_table.capacity kl - 1 do
    let peer = Packed_table.key_at kl i in
    if peer >= 0 then
      rows :=
        ( Hashtbl.hash peer land (s.Server.peer_buckets - 1),
          -Packed_table.payload_at kl i,
          peer,
          Float.Array.get loads i )
        :: !rows
  done;
  List.map (fun (_, _, p, l) -> (p, l)) (List.sort compare !rows)

(* Long random histories over 700 peers against a real [Hashtbl.create
   32]: notes of new and known peers, forgets, re-adds and resets.  Enough
   peers are live at once for the table to resize past 64, 128 and 256
   buckets, and quarter-step loads make ties common. *)
let test_peer_table_replay () =
  let self = 3 in
  let max_buckets = ref 0 and resets = ref 0 in
  List.iter
    (fun seed ->
      let rng = Splitmix.create seed in
      let s = server ~id:self [] in
      let tbl : (int, float) Hashtbl.t = Hashtbl.create 32 in
      for step = 1 to 4000 do
        let p = Splitmix.int rng 700 in
        (match Splitmix.int rng 10_000 with
        | r when r < 8000 ->
          let load = float_of_int (Splitmix.int rng 5) /. 4.0 in
          Server.note_peer_load s p load;
          if p <> self then Hashtbl.replace tbl p load
        | r when r < 9995 ->
          Server.forget_peer s p;
          Hashtbl.remove tbl p
        | _ ->
          Server.forget_all_peers s;
          Hashtbl.reset tbl;
          incr resets);
        max_buckets := max !max_buckets s.Server.peer_buckets;
        if replayed_order s <> reference_order tbl then
          Alcotest.failf "seed %d step %d: visit order differs" seed step;
        let winner = Option.map fst (reference_min tbl ~exclude:[]) in
        List.iter
          (fun exclude ->
            if Server.min_load_peer s ~exclude <> reference_min tbl ~exclude then
              Alcotest.failf "seed %d step %d: min_load_peer differs" seed step)
          [ []; [ self ]; Option.to_list winner; [ p; Splitmix.int rng 700; Splitmix.int rng 700 ] ]
      done)
    [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "resized past 256 buckets" true (!max_buckets >= 512);
  Alcotest.(check bool) "reset at least once" true (!resets >= 1)

(* ---- lazy local digest ---- *)

let test_digest_versions () =
  let nodes = [ 1; 6; 9; 14; 22 ] in
  let s = server [] in
  List.iteri
    (fun i n ->
      add_owned s n;
      Alcotest.(check int) "one version per add" (i + 1) (Digest_store.local_version s.Server.digests))
    nodes

let test_digest_matches_eager () =
  let s = server [ 1; 6; 9; 14; 22 ] in
  let hosted = Server.hosted_nodes s in
  let eager =
    Bloom.of_iter ~bits_per_element:16 ~hashes:10 ~expected:(List.length hosted) (fun add ->
        List.iter add hosted)
  in
  Alcotest.(check bool) "local = Bloom.of_iter over the hosted set" true
    (Bloom.equal (Digest_store.local s.Server.digests) eager);
  Alcotest.(check bool) "a second read returns the same filter" true
    (Digest_store.local s.Server.digests == Digest_store.local s.Server.digests)

let rules_of s =
  let a = Invariant.create () in
  Invariant.check_server a ~now:1.0 s;
  List.map (fun v -> v.Invariant.v_rule) (Invariant.violations a)

let test_digest_corruption_caught () =
  let s = server [ 1; 6 ] in
  (* Corrupt while a build is still pending: the auditor's read builds it. *)
  Digest_store.rebuild_local s.Server.digests ~hosted:[];
  Alcotest.(check bool) "digest-stale fires" true (List.mem "digest-stale" (rules_of s));
  Server.touch_node s 1 ~now:0.5;
  Digest_store.rebuild_local s.Server.digests ~hosted:(Server.hosted_nodes s);
  Alcotest.(check (list string)) "clean once rebuilt" [] (rules_of s)

let () =
  Alcotest.run "terradir_promotion"
    [
      ( "alloc-pins",
        [
          Alcotest.test_case "Node_map.mem" `Quick test_pin_mem;
          Alcotest.test_case "merge subsumed" `Quick test_pin_merge_subsumed;
          Alcotest.test_case "note_peer_load known peer" `Quick test_pin_note_peer_load;
          Alcotest.test_case "touch_node hosted" `Quick test_pin_touch_node;
          Alcotest.test_case "Pqueue pop + add" `Quick test_pin_pqueue_hold;
          Alcotest.test_case "Splitmix draws" `Quick test_pin_splitmix;
          Alcotest.test_case "Intmap and Lru lookups" `Quick test_pin_table_lookups;
          Alcotest.test_case "Lru put of a new key under eviction churn" `Quick test_pin_lru_churn;
          Alcotest.test_case "merge_into_known_map of a known map" `Quick test_pin_merge_known;
          Alcotest.test_case "Server slot accessors" `Quick test_pin_slot_accessors;
          Alcotest.test_case "digest-carrying send" `Quick test_pin_digest_send;
          Alcotest.test_case "Pqueue pop pins nothing" `Quick test_pop_pins_nothing;
        ] );
      ( "msg-thunks",
        [
          Alcotest.test_case "recycled keeps thunks" `Quick test_recycled_thunks;
          Alcotest.test_case "freed thunk raises" `Quick test_freed_thunks_raise;
        ] );
      ( "known-loads",
        Alcotest.test_case "replays Hashtbl.create 32 through resizes and resets" `Quick
          test_peer_table_replay
        :: List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_min_load_peer ] );
      ( "lazy-digest",
        [
          Alcotest.test_case "version per add" `Quick test_digest_versions;
          Alcotest.test_case "local = eager build" `Quick test_digest_matches_eager;
          Alcotest.test_case "auditor catches corruption" `Quick test_digest_corruption_caught;
        ] );
    ]
