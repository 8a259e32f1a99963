(* Flat, index-linked LRU: entries live in parallel arrays (key, value,
   prev, next) indexed by slot, with recency links as slot indices and an
   {!Intmap.Index} from key to slot.  No per-entry heap node and no
   hash-bucket cons — [put]/[find]/eviction allocate nothing once the
   arrays have grown to the entries held.

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
  mutable prev : int array; (* toward MRU end; -1 = none *)
  mutable next : int array; (* toward LRU end; -1 = none; a free slot: next free *)
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
    prev = [||];
    next = [||];
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

(* Re-index every live entry, at [size]: after growth, or to sweep
   tombstones left by removals. *)
let reindex t size =
  Index.reset t.index size;
  let rec go slot =
    if slot >= 0 then begin
      Index.insert t.index t.keys.(slot) slot;
      go t.next.(slot)
    end
  in
  go t.head

let index_remove t k slot =
  Index.remove t.index k slot;
  if Index.crowded t.index then reindex t (Index.size t.index)

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

(* ---- slots ---- *)

let free_slot t slot =
  t.next.(slot) <- t.free;
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
  t.prev <- extend t.prev (-1);
  t.next <- extend t.next (-1)

let take_slot t v =
  if t.free >= 0 then begin
    let slot = t.free in
    t.free <- t.next.(slot);
    t.next.(slot) <- -1;
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
  let rec go acc slot = if slot < 0 then acc else go (f acc t.keys.(slot) t.vals.(slot)) t.next.(slot) in
  go init t.head

let slot = find_slot

let index t = t.index

let links t = (t.prev, t.next)

(* A slot is occupied iff it has a predecessor or is the head: [unlink]
   resets a freed slot's [prev] to -1. *)
let keys_into t dst =
  let n = ref 0 in
  for slot = 0 to t.fresh - 1 do
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

(* Back to the created state, arrays released. *)
let clear t =
  t.keys <- [||];
  t.vals <- [||];
  t.prev <- [||];
  t.next <- [||];
  t.head <- -1;
  t.tail <- -1;
  t.len <- 0;
  t.free <- -1;
  t.fresh <- 0;
  Index.reset t.index 0
