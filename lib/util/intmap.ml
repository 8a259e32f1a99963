(* Dense int-keyed table: keys and values in parallel arrays, [0 .. len)
   occupied, plus an open-addressing index over them, at most half full,
   so a probe always meets an empty position. *)

module Index = struct
  (* One cell per probe position in a [Bytes] block: [0] empty, [slot + 1]
     occupied.  Cells are 2 bytes while the index has at most 2^16
     positions (the owner keeps [slot] below half the size, so [slot + 1]
     fits) and 4 bytes beyond; the width is read off the block's length,
     which the two ranges never share.  Both widths are read and written
     with the native-endian primitives, unboxed. *)
  external get16 : Bytes.t -> int -> int = "%caml_bytes_get16"

  external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16"

  external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"

  external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

  let narrow_positions = 1 lsl 16

  (* Bytes per cell, as a shift: 1 for 2-byte cells, 2 for 4-byte. *)
  let shift tbl = if Bytes.length tbl <= narrow_positions lsl 1 then 1 else 2

  let[@inline] get tbl sh i = if sh = 1 then get16 tbl (i lsl 1) else Int32.to_int (get32 tbl (i lsl 2))

  let[@inline] set tbl sh i v = if sh = 1 then set16 tbl (i lsl 1) v else set32 tbl (i lsl 2) (Int32.of_int v)

  let make n = if n = 0 then Bytes.empty else Bytes.make (n lsl if n <= narrow_positions then 1 else 2) '\000'

  let size tbl = Bytes.length tbl lsr shift tbl

  (* Fibonacci-style multiplicative hash of an int key; keys here are
     dense interned ids, which linear probing over the raw low bits would
     cluster badly. *)
  let hash k =
    let h = k lxor (k lsr 33) in
    let h = h * 0x27220A95FE220589 in
    (h lxor (h lsr 29)) land max_int

  (* One walk of [k]'s probe path: [k]'s slot when bound, else [-1 -
     cell] for the empty cell that ends the path, where {!insert_at} would
     put it.  Probes are top-level functions over explicit arguments, not
     local closures, so a lookup allocates nothing. *)
  let rec probe_from tbl sh mask keys k i =
    match get tbl sh i with
    | 0 -> -1 - i
    | v when keys.(v - 1) = k -> v - 1
    | _ -> probe_from tbl sh mask keys k ((i + 1) land mask)

  (* An empty index answers [-1] (cell 0), which the owner never fills:
     its next entry grows the index. *)
  let probe tbl keys k =
    let sh = shift tbl in
    let mask = (Bytes.length tbl lsr sh) - 1 in
    if mask < 0 then -1 else probe_from tbl sh mask keys k (hash k land mask)

  (* Fill the empty cell a [probe] found, which no change to the index may
     have come between, with [slot]. *)
  let insert_at tbl cell slot =
    let sh = shift tbl in
    assert (slot + 1 <= if sh = 1 then 0xFFFF else 0x7FFF_FFFF);
    set tbl sh cell (slot + 1)

  (* The first cell from [i] holding [v]; from a key's home, with
     [v = slot + 1], that slot's cell. *)
  let rec holding_from tbl sh mask v i = if get tbl sh i = v then i else holding_from tbl sh mask v ((i + 1) land mask)

  let move tbl k ~from ~to_ =
    let sh = shift tbl in
    let mask = (Bytes.length tbl lsr sh) - 1 in
    set tbl sh (holding_from tbl sh mask (from + 1) (hash k land mask)) (to_ + 1)

  (* Close the hole at [hole] by walking the probe run after it: the
     entry at [j] whose home is not cyclically inside [(hole, j]] moves
     back into the hole, which then opens at [j]. *)
  let rec shift_back tbl sh mask keys hole j =
    match get tbl sh j with
    | 0 -> set tbl sh hole 0
    | v when (j - hash keys.(v - 1)) land mask >= (j - hole) land mask ->
      set tbl sh hole v;
      shift_back tbl sh mask keys j ((j + 1) land mask)
    | _ -> shift_back tbl sh mask keys hole ((j + 1) land mask)

  let remove tbl keys k slot =
    let sh = shift tbl in
    let mask = (Bytes.length tbl lsr sh) - 1 in
    let hole = holding_from tbl sh mask (slot + 1) (hash k land mask) in
    shift_back tbl sh mask keys hole ((hole + 1) land mask)

  (* The first broken property of an index over [keys.(0 .. len - 1)].
     The load and cell tests come first, so at least half the cells are
     empty and every probe ends. *)
  let check tbl keys len =
    let sh = shift tbl and n = size tbl in
    let rec cells i live =
      if i = n then live
      else match get tbl sh i with 0 -> cells (i + 1) live | v when v > len -> -1 | _ -> cells (i + 1) (live + 1)
    in
    let rec resolve i = if i = len || probe tbl keys keys.(i) <> i then i else resolve (i + 1) in
    if 2 * len > n then Some (Printf.sprintf "%d entries in %d positions" len n)
    else if cells 0 0 <> len then Some (Printf.sprintf "the non-empty cells are not slots 0 .. %d" (len - 1))
    else
      let i = resolve 0 in
      if i < len then Some (Printf.sprintf "key %d's probe misses its slot %d" keys.(i) i) else None
end

(* The columns are slot-parallel when enabled, else stay empty; they grow
   with [keys] and move with every swap-remove.  [shape] packs the growth
   cap and the two column flags into one field, [cap lsl 2] over bit 0
   (ints) and bit 1 (floats): a server holds five tables (hosted nodes,
   neighbor contexts, ranking, and the two LRUs'), so each field costs
   40 bytes per server. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array; (* created at the first add: no 'a to prefill with before *)
  mutable ints : int array;
  mutable floats : floatarray;
  mutable len : int;
  mutable index : Bytes.t;
  shape : int;
}

let uncapped = max_int lsr 2

let create ?(ints = false) ?(floats = false) ?(cap = uncapped) () =
  if cap < 0 || cap > uncapped then invalid_arg "Intmap.create: cap out of range";
  {
    keys = [||];
    vals = [||];
    ints = [||];
    floats = Float.Array.create 0;
    len = 0;
    index = Bytes.empty;
    shape = (cap lsl 2) lor Bool.to_int ints lor (Bool.to_int floats lsl 1);
  }

let with_ints t = t.shape land 1 <> 0

let with_floats t = t.shape land 2 <> 0

let length t = t.len

let slot t k = match Index.probe t.index t.keys k with p when p >= 0 -> p | _ -> -1

let mem t k = slot t k >= 0

let out_of_range op = invalid_arg ("Intmap." ^ op ^ ": slot out of range")

(* Small enough to inline, so a slot accessor costs no call. *)
let[@inline] check_slot t i op = if i < 0 || i >= t.len then out_of_range op

let key_at t i =
  check_slot t i "key_at";
  t.keys.(i)

let value_at t i =
  check_slot t i "value_at";
  t.vals.(i)

let set_at t i v =
  check_slot t i "set_at";
  t.vals.(i) <- v

(* Typed [float t], the values are a flat float array: the update reads
   and writes it unboxed, where [set_at (value_at ...)] would box. *)
let add_at (t : float t) i d =
  check_slot t i "add_at";
  t.vals.(i) <- t.vals.(i) +. d

let int_at t i =
  check_slot t i "int_at";
  t.ints.(i)

let set_int_at t i v =
  check_slot t i "set_int_at";
  t.ints.(i) <- v

let floats t = t.floats

(* Keys are distinct, so each probe ends at an empty cell. *)
let rebuild t n =
  t.index <- Index.make n;
  for i = 0 to t.len - 1 do
    Index.insert_at t.index (-1 - Index.probe t.index t.keys t.keys.(i)) i
  done

(* Append [k] in slot [len]; [cell] is where a [probe] found it would go,
   filled unless the index must grow first. *)
let append t k v cell =
  let i = t.len in
  if i = Array.length t.keys then begin
    let want = max 4 (2 * i) in
    let cap = t.shape lsr 2 in
    let size = if i < cap then min cap want else want in
    let keys = Array.make size 0 and vals = Array.make size v in
    Array.blit t.keys 0 keys 0 i;
    Array.blit t.vals 0 vals 0 i;
    t.keys <- keys;
    t.vals <- vals;
    if with_ints t then begin
      let ints = Array.make size 0 in
      Array.blit t.ints 0 ints 0 i;
      t.ints <- ints
    end;
    if with_floats t then begin
      let floats = Float.Array.make size 0.0 in
      Float.Array.blit t.floats 0 floats 0 i;
      t.floats <- floats
    end
  end;
  t.keys.(i) <- k;
  t.vals.(i) <- v;
  if with_ints t then t.ints.(i) <- 0;
  if with_floats t then Float.Array.set t.floats i 0.0;
  t.len <- i + 1;
  if 2 * t.len > Index.size t.index then rebuild t (max 8 (2 * Index.size t.index))
  else Index.insert_at t.index cell i

let add t k v =
  match Index.probe t.index t.keys k with
  | p when p >= 0 -> invalid_arg "Intmap.add: key already bound"
  | p -> append t k v (-1 - p)

let replace t k v =
  match Index.probe t.index t.keys k with
  | p when p >= 0 -> t.vals.(p) <- v
  | p -> append t k v (-1 - p)

let clear t =
  t.keys <- [||];
  t.vals <- [||];
  t.ints <- [||];
  t.floats <- Float.Array.create 0;
  t.len <- 0;
  t.index <- Bytes.empty

let remove_at t i =
  check_slot t i "remove_at";
  let last = t.len - 1 in
  if last = 0 then (* Emptied: back to the created state, holding no stale value. *)
    clear t
  else begin
    Index.remove t.index t.keys t.keys.(i) i;
    if i < last then begin
      let moved = t.keys.(last) in
      Index.move t.index moved ~from:last ~to_:i;
      t.keys.(i) <- moved;
      t.vals.(i) <- t.vals.(last);
      if with_ints t then t.ints.(i) <- t.ints.(last);
      if with_floats t then Float.Array.set t.floats i (Float.Array.get t.floats last)
    end;
    (* Slot [last] is free; point it at a live value so it pins nothing. *)
    t.vals.(last) <- t.vals.(0);
    t.len <- last
  end

let remove t k = match slot t k with -1 -> () | i -> remove_at t i

let iter t ~f =
  for i = 0 to t.len - 1 do
    f t.keys.(i) t.vals.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.keys.(i) t.vals.(i)
  done;
  !acc

let index t = t.index

let columns t = (t.ints, t.floats)

let set_key_unchecked t i k =
  check_slot t i "set_key_unchecked";
  t.keys.(i) <- k

let check t = Index.check t.index t.keys t.len
