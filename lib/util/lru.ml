(* Flat, index-linked LRU: entries live in parallel arrays (key, value,
   prev, next) indexed by slot, with recency links as slot indices and an
   open-addressing int → slot index table.  No per-entry heap node and no
   hash-bucket cons — [put]/[find]/eviction allocate nothing once the
   value array exists.  Capacity is fixed at creation, so every array is
   preallocated; the value array alone is created lazily at the first
   [put] (there is no 'a dummy to prefill it with).

   The index table stores [slot + 1] per occupied probe, [0] for empty,
   [-1] for a tombstone left by a deletion.  Tombstones accumulate under
   remove/evict churn and are swept by an in-place rebuild once they
   outnumber a quarter of the table — live entries are bounded by
   [capacity <= table/2], so the rebuild cadence is at least
   [table/4] deletions apart. *)

type 'a t = {
  capacity : int;
  keys : int array; (* per-slot key *)
  mutable vals : 'a array; (* created at first put; length = capacity *)
  prev : int array; (* toward MRU end; -1 = none *)
  next : int array; (* toward LRU end; -1 = none *)
  mutable head : int; (* most recently used slot; -1 = empty *)
  mutable tail : int; (* least recently used slot; -1 = empty *)
  mutable len : int;
  free : int array; (* stack of unused slots *)
  mutable free_top : int;
  idx : int array; (* open addressing: slot + 1, 0 = empty, -1 = tombstone *)
  idx_mask : int;
  mutable idx_tombs : int;
  mutable hits : int;
  mutable misses : int;
}

(* Fibonacci-style multiplicative scramble of an int key; keys here are
   dense interned ids, which linear probing over the raw low bits would
   cluster badly. *)
let scramble k =
  let h = k lxor (k lsr 33) in
  let h = h * 0x27220A95FE220589 in
  (h lxor (h lsr 29)) land max_int

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  let table = pow2_at_least (max 16 (2 * capacity)) 16 in
  {
    capacity;
    keys = Array.make (max 1 capacity) 0;
    vals = [||];
    prev = Array.make (max 1 capacity) (-1);
    next = Array.make (max 1 capacity) (-1);
    head = -1;
    tail = -1;
    len = 0;
    free = Array.init (max 1 capacity) (fun i -> capacity - 1 - i);
    free_top = capacity;
    idx = Array.make table 0;
    idx_mask = table - 1;
    idx_tombs = 0;
    hits = 0;
    misses = 0;
  }

let capacity t = t.capacity

let length t = t.len

(* ---- index table ---- *)

let find_slot t k =
  let mask = t.idx_mask in
  let rec probe i =
    match t.idx.(i) with
    | 0 -> -1
    | v when v > 0 && t.keys.(v - 1) = k -> v - 1
    | _ -> probe ((i + 1) land mask)
  in
  probe (scramble k land mask)

let index_insert t k slot =
  let mask = t.idx_mask in
  let rec probe i =
    if t.idx.(i) <= 0 then begin
      if t.idx.(i) < 0 then t.idx_tombs <- t.idx_tombs - 1;
      t.idx.(i) <- slot + 1
    end
    else probe ((i + 1) land mask)
  in
  probe (scramble k land mask)

let sweep_tombs t =
  Array.fill t.idx 0 (Array.length t.idx) 0;
  t.idx_tombs <- 0;
  let rec reindex slot =
    if slot >= 0 then begin
      index_insert t t.keys.(slot) slot;
      reindex t.next.(slot)
    end
  in
  reindex t.head

let index_remove t k =
  let mask = t.idx_mask in
  let rec probe i =
    match t.idx.(i) with
    | 0 -> ()
    | v when v > 0 && t.keys.(v - 1) = k ->
      t.idx.(i) <- -1;
      t.idx_tombs <- t.idx_tombs + 1;
      if 4 * t.idx_tombs > Array.length t.idx then sweep_tombs t
    | _ -> probe ((i + 1) land mask)
  in
  probe (scramble k land mask)

(* ---- recency list ---- *)

let unlink t slot =
  let p = t.prev.(slot) and n = t.next.(slot) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p;
  t.prev.(slot) <- -1;
  t.next.(slot) <- -1

let push_front t slot =
  t.next.(slot) <- t.head;
  t.prev.(slot) <- -1;
  if t.head >= 0 then t.prev.(t.head) <- slot else t.tail <- slot;
  t.head <- slot

let promote t slot =
  if t.head <> slot then begin
    unlink t slot;
    push_front t slot
  end

(* ---- operations ---- *)

let find t k =
  match find_slot t k with
  | -1 ->
    t.misses <- t.misses + 1;
    None
  | slot ->
    t.hits <- t.hits + 1;
    promote t slot;
    Some t.vals.(slot)

let peek t k = match find_slot t k with -1 -> None | slot -> Some t.vals.(slot)

let mem t k = find_slot t k >= 0

let free_slot t slot =
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  t.len <- t.len - 1

let remove t k =
  match find_slot t k with
  | -1 -> ()
  | slot ->
    unlink t slot;
    index_remove t k;
    free_slot t slot

let evict_lru t =
  let slot = t.tail in
  if slot >= 0 then begin
    unlink t slot;
    index_remove t t.keys.(slot);
    free_slot t slot
  end

let put t k v =
  if t.capacity = 0 then ()
  else
    match find_slot t k with
    | slot when slot >= 0 ->
      t.vals.(slot) <- v;
      promote t slot
    | _ ->
      if t.len >= t.capacity then evict_lru t;
      if Array.length t.vals = 0 then t.vals <- Array.make t.capacity v;
      t.free_top <- t.free_top - 1;
      let slot = t.free.(t.free_top) in
      t.len <- t.len + 1;
      t.keys.(slot) <- k;
      t.vals.(slot) <- v;
      index_insert t k slot;
      push_front t slot

let fold t ~init ~f =
  let rec go acc slot = if slot < 0 then acc else go (f acc t.keys.(slot) t.vals.(slot)) t.next.(slot) in
  go init t.head

let slot = find_slot

(* A slot is occupied iff it has a predecessor or is the head: [unlink]
   and [clear] reset a freed slot's links to -1. *)
let keys_into t dst =
  let n = ref 0 in
  for slot = 0 to t.capacity - 1 do
    if slot = t.head || t.prev.(slot) >= 0 then begin
      dst.(!n) <- t.keys.(slot);
      incr n
    end
  done;
  !n

let first t = t.head

let next t slot = t.next.(slot)

let key_at t slot = t.keys.(slot)

let value_at t slot = t.vals.(slot)

let iter t ~f = fold t ~init:() ~f:(fun () k v -> f k v)

let keys_mru_order t = List.rev (fold t ~init:[] ~f:(fun acc k _ -> k :: acc))

let hits t = t.hits

let misses t = t.misses

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let clear t =
  Array.fill t.idx 0 (Array.length t.idx) 0;
  t.idx_tombs <- 0;
  (* Entry values stay in [vals] until their slots are reused: bounded
     retention (<= capacity stale references), traded against needing a
     dummy 'a to scrub with. *)
  for i = 0 to Array.length t.free - 1 do
    t.free.(i) <- t.capacity - 1 - i
  done;
  t.free_top <- t.capacity;
  Array.fill t.prev 0 (Array.length t.prev) (-1);
  Array.fill t.next 0 (Array.length t.next) (-1);
  t.head <- -1;
  t.tail <- -1;
  t.len <- 0
