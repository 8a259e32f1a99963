(* Bounded LRU over an {!Intmap}: the table holds keys, values, the
   key → slot index and the optional int column; this module adds the
   recency list, as slot links in one [Bytes] block.  No per-entry heap
   node and no hash-bucket cons — [put]/[find]/eviction allocate nothing
   once the arrays have grown to the entries held.

   The list is circular through a sentinel at position 0; slot [s] sits
   at position [s + 1], with two cells there, [prev] (toward the MRU end)
   then [next] (toward the LRU end), each a position.  The sentinel's
   [next] is the MRU entry and its [prev] the LRU one, so no record field
   holds the ends and unlinking needs no end cases.

   Slots are the table's positions: a removal or eviction swap-removes,
   moving the last slot's entry (and its int) into the hole, and its two
   links move with it, its neighbours re-pointed.  The link block grows
   as the table's arrays do, doubling up to [capacity] slots (plus the
   sentinel, which the block's padding word mostly absorbs). *)

(* [capacity] bounds [put]; the table takes it as its growth cap. *)
type 'a t = { capacity : int; map : 'a Intmap.t; mutable links : Bytes.t }

(* A link cell holds a position, at most [capacity], in 2 bytes. *)
let max_capacity = 0xFFFF

let create ?(ints = false) ~capacity () =
  if capacity < 0 || capacity > max_capacity then invalid_arg "Lru.create: capacity outside [0, 65535]";
  { capacity; map = Intmap.create ~ints ~cap:capacity (); links = Bytes.empty }

let capacity t = t.capacity

let length t = Intmap.length t.map

(* ---- links ---- *)

(* Read and written with the native-endian primitives, unboxed. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16"

external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16"

let[@inline] prev t p = get16 t.links (4 * p)

let[@inline] succ t p = get16 t.links ((4 * p) + 2)

let[@inline] set_prev t p v = set16 t.links (4 * p) v

let[@inline] set_succ t p v = set16 t.links ((4 * p) + 2) v

(* Room for position [p] (slot [p - 1]): zeroed cells, no links. *)
let reserve t p =
  let held = Bytes.length t.links / 4 in
  if p >= held then begin
    let slots = min (capacity t) (max 4 (2 * (held - 1))) in
    let links = Bytes.make ((slots + 1) * 4) '\000' in
    Bytes.blit t.links 0 links 0 (Bytes.length t.links);
    t.links <- links
  end

(* A recency walk meets at most [length] entries: one more means the
   links loop, and the walk stops instead of hanging. *)
let looped () = invalid_arg "Lru: recency walk passed length entries (the links loop)"

(* ---- recency list ---- *)

let unlink t p =
  let a = prev t p and b = succ t p in
  set_succ t a b;
  set_prev t b a

let push_front t p =
  let mru = succ t 0 in
  set_prev t p 0;
  set_succ t p mru;
  set_prev t mru p;
  set_succ t 0 p

let promote t p =
  if succ t 0 <> p then begin
    unlink t p;
    push_front t p
  end

(* Unlink slot [i] and swap-remove it: the last slot's entry moves into
   [i], so its links move there too and its neighbours point at [i]. *)
let drop t i =
  let p = i + 1 and last = length t in
  unlink t p;
  if p < last then begin
    let a = prev t last and b = succ t last in
    set_prev t p a;
    set_succ t p b;
    set_succ t a p;
    set_prev t b p
  end;
  Intmap.remove_at t.map i

(* ---- operations ---- *)

let slot t k = Intmap.slot t.map k

let[@inline] first t = if length t = 0 then -1 else succ t 0 - 1

let[@inline] next t slot = succ t (slot + 1) - 1

let[@inline] key_at t slot = Intmap.key_at t.map slot

let[@inline] value_at t slot = Intmap.value_at t.map slot

let int_at t slot = Intmap.int_at t.map slot

let set_int_at t slot v = Intmap.set_int_at t.map slot v

let find t k =
  match slot t k with
  | -1 -> None
  | i ->
    promote t (i + 1);
    Some (value_at t i)

let peek t k = match slot t k with -1 -> None | i -> Some (value_at t i)

let remove t k = match slot t k with -1 -> () | i -> drop t i

let put t k v =
  match slot t k with
  | -1 ->
    if capacity t > 0 then begin
      if length t = capacity t then drop t (prev t 0 - 1);
      Intmap.add t.map k v;
      let p = length t in
      reserve t p;
      push_front t p
    end
  | i ->
    Intmap.set_at t.map i v;
    promote t (i + 1)

let fold t ~init ~f =
  let rec go acc slot left =
    if slot < 0 then acc
    else if left = 0 then looped ()
    else go (f acc (key_at t slot) (value_at t slot)) (next t slot) (left - 1)
  in
  go init (first t) (length t)

let iter t ~f = fold t ~init:() ~f:(fun () k v -> f k v)

let keys_mru_order t = List.rev (fold t ~init:[] ~f:(fun acc k _ -> k :: acc))

let keys_into t dst =
  for i = 0 to length t - 1 do
    dst.(i) <- key_at t i
  done;
  length t

let index t = Intmap.index t.map

let links t = t.links

(* Back to the created state, arrays released. *)
let clear t =
  Intmap.clear t.map;
  t.links <- Bytes.empty

(* Mutual links never revisit a position, so the walk ends within
   [length + 1] steps. *)
let check t =
  let n = length t in
  let rec walk p steps =
    let q = succ t p in
    if q > n || prev t q <> p then Some (Printf.sprintf "position %d's next, %d, does not link back" p q)
    else if q > 0 then walk q (steps + 1)
    else if steps < n then Some (Printf.sprintf "the recency walk meets %d of %d entries" steps n)
    else None
  in
  match Intmap.check t.map with None when n > 0 -> walk 0 0 | broken -> broken
