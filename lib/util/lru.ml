(* Flat, index-linked LRU: entries live in parallel arrays (key, value)
   indexed by slot, with the recency links as slot indices in one [Bytes]
   block and an {!Intmap.Index} from key to slot.  No per-entry heap node
   and no hash-bucket cons — [put]/[find]/eviction allocate nothing once
   the arrays have grown to the entries held.

   Every array is sized by use, not by capacity: the slot arrays start
   empty and double up to [capacity]; the index doubles while live
   entries exceed half of it, so it never outgrows [2 × capacity]
   rounded up to a power of two.  Slots are handed out freed-first (most
   recently freed, threaded through [next]), then fresh in ascending
   order — a key keeps its slot until it leaves, and [keys_into] sweeps
   only slots ever used. *)

module Index = Intmap.Index

type 'a t = {
  capacity : int;
  mutable keys : int array; (* per-slot key *)
  mutable vals : 'a array; (* no 'a to prefill with: created at first put *)
  mutable links : Bytes.t;
      (* per slot two cells, [prev + 1] (toward the MRU end) then [next + 1]
         (toward the LRU end; a free slot's next free), [0] for none *)
  mutable head : int; (* most recently used slot; -1 = empty *)
  mutable tail : int; (* least recently used slot; -1 = empty *)
  mutable len : int;
  mutable free : int; (* most recently freed slot; -1 = none *)
  mutable fresh : int; (* slots [fresh ..] have never been used *)
  index : Index.t;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    capacity;
    keys = [||];
    vals = [||];
    links = Bytes.empty;
    head = -1;
    tail = -1;
    len = 0;
    free = -1;
    fresh = 0;
    index = Index.create ();
  }

let capacity t = t.capacity

let length t = t.len

let find_slot t k = Index.find t.index t.keys k

(* ---- links ---- *)

(* A link cell holds a slot + 1, at most [capacity]: 2 bytes while that
   fits, 4 beyond, fixed for the table's life.  Both widths are read and
   written with the native-endian primitives, unboxed. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16"

external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16"

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"

external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let narrow_capacity = 0xFFFF

(* Bytes per slot, as a shift: 2 for two 2-byte cells, 3 for two 4-byte. *)
let slot_shift capacity = if capacity <= narrow_capacity then 2 else 3

let[@inline] get_cell t c =
  if t.capacity <= narrow_capacity then get16 t.links (c lsl 1) - 1
  else Int32.to_int (get32 t.links (c lsl 2)) - 1

let[@inline] set_cell t c v =
  if t.capacity <= narrow_capacity then set16 t.links (c lsl 1) (v + 1)
  else set32 t.links (c lsl 2) (Int32.of_int (v + 1))

let[@inline] prev t slot = get_cell t (2 * slot)

let[@inline] next t slot = get_cell t ((2 * slot) + 1)

let[@inline] set_prev t slot v = set_cell t (2 * slot) v

let[@inline] set_next t slot v = set_cell t ((2 * slot) + 1) v

(* A recency walk meets at most [len] entries: one more means the links
   loop, and the walk stops instead of hanging. *)
let looped () = invalid_arg "Lru: recency walk passed length entries (the links loop)"

(* Re-index every live entry, MRU first, at most [left] of them: a
   top-level recursion, so a tombstone sweep allocates nothing. *)
let rec reindex_from t slot left =
  if slot >= 0 then begin
    if left = 0 then looped ();
    Index.insert t.index t.keys.(slot) slot;
    reindex_from t (next t slot) (left - 1)
  end

(* Re-index at [size]: after growth, or to sweep tombstones left by
   removals. *)
let reindex t size =
  Index.reset t.index size;
  reindex_from t t.head t.len

let index_remove t k slot =
  Index.remove t.index k slot;
  if Index.crowded t.index then reindex t (Index.size t.index)

(* ---- recency list ---- *)

let unlink t slot =
  let p = prev t slot and n = next t slot in
  if p >= 0 then set_next t p n else t.head <- n;
  if n >= 0 then set_prev t n p else t.tail <- p;
  set_prev t slot (-1);
  set_next t slot (-1)

let push_front t slot =
  set_next t slot t.head;
  set_prev t slot (-1);
  if t.head >= 0 then set_prev t t.head slot else t.tail <- slot;
  t.head <- slot

let promote t slot =
  if t.head <> slot then begin
    unlink t slot;
    push_front t slot
  end

(* ---- slots ---- *)

let free_slot t slot =
  set_next t slot t.free;
  t.free <- slot;
  t.len <- t.len - 1

(* Grow the slot arrays (doubling, capped at [capacity]) so that slot
   [fresh] exists; [v] prefills the value array. *)
let grow t v =
  let n = Array.length t.keys in
  let cap = min t.capacity (max 4 (2 * n)) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.keys <- extend t.keys 0;
  t.vals <- extend t.vals v;
  (* Zeroed cells: no links. *)
  let links = Bytes.make (cap lsl slot_shift t.capacity) '\000' in
  Bytes.blit t.links 0 links 0 (Bytes.length t.links);
  t.links <- links

let take_slot t v =
  if t.free >= 0 then begin
    let slot = t.free in
    t.free <- next t slot;
    set_next t slot (-1);
    slot
  end
  else begin
    if t.fresh = Array.length t.keys then grow t v;
    t.fresh <- t.fresh + 1;
    t.fresh - 1
  end

(* ---- operations ---- *)

let find t k =
  match find_slot t k with
  | -1 -> None
  | slot ->
    promote t slot;
    Some t.vals.(slot)

let peek t k = match find_slot t k with -1 -> None | slot -> Some t.vals.(slot)

let remove t k =
  match find_slot t k with
  | -1 -> ()
  | slot ->
    unlink t slot;
    index_remove t k slot;
    free_slot t slot

let evict_lru t =
  let slot = t.tail in
  if slot >= 0 then begin
    unlink t slot;
    index_remove t t.keys.(slot) slot;
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
      let slot = take_slot t v in
      t.len <- t.len + 1;
      t.keys.(slot) <- k;
      t.vals.(slot) <- v;
      push_front t slot;
      if 2 * t.len > Index.size t.index then reindex t (Index.grown t.index ~live:t.len)
      else Index.insert t.index k slot

let fold t ~init ~f =
  let rec go acc slot left =
    if slot < 0 then acc
    else if left = 0 then looped ()
    else go (f acc t.keys.(slot) t.vals.(slot)) (next t slot) (left - 1)
  in
  go init t.head t.len

let slot = find_slot

let index t = t.index

let links t = t.links

(* A slot is occupied iff it has a predecessor or is the head: [unlink]
   resets a freed slot's [prev] to none. *)
let keys_into t dst =
  let n = ref 0 in
  for slot = 0 to t.fresh - 1 do
    if slot = t.head || prev t slot >= 0 then begin
      dst.(!n) <- t.keys.(slot);
      incr n
    end
  done;
  !n

let first t = t.head

let key_at t slot = t.keys.(slot)

let value_at t slot = t.vals.(slot)

let iter t ~f = fold t ~init:() ~f:(fun () k v -> f k v)

let keys_mru_order t = List.rev (fold t ~init:[] ~f:(fun acc k _ -> k :: acc))

(* Back to the created state, arrays released. *)
let clear t =
  t.keys <- [||];
  t.vals <- [||];
  t.links <- Bytes.empty;
  t.head <- -1;
  t.tail <- -1;
  t.len <- 0;
  t.free <- -1;
  t.fresh <- 0;
  Index.reset t.index 0
