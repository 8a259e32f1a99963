(* One int per slot: [(key + 1) lsl payload_bits lor payload], [0] for
   empty.  [key + 1] takes the top [key_bits] of the 63; reading it back
   with [lsr] is exact even when it reaches the sign bit.  At most 3/4 of
   the slots are occupied.  Probing and removal are [Intmap]'s: linear
   from [Intmap.Index.hash], and a removal shifts the rest of the probe
   run back (no tombstones), moving each entry's float with it. *)

let key_bits = 24

let payload_bits = 39

let payload_mask = (1 lsl payload_bits) - 1

let max_key = (1 lsl key_bits) - 2

type t = {
  mutable slots : int array;
  mutable floats : floatarray; (* slot-parallel when [with_floats], else empty *)
  with_floats : bool;
  mutable len : int;
}

let create ?(floats = false) () =
  { slots = [||]; floats = Float.Array.create 0; with_floats = floats; len = 0 }

let length t = t.len

let capacity t = Array.length t.slots

let clear t =
  t.slots <- [||];
  t.floats <- Float.Array.create 0;
  t.len <- 0

let home mask k = Intmap.Index.hash k land mask

(* Probes are top-level recursions over explicit arguments, not local
   closures, so a lookup allocates nothing. *)
let rec find_from slots mask tag i =
  match Array.unsafe_get slots i with
  | 0 -> -1
  | e when e lsr payload_bits = tag -> i
  | _ -> find_from slots mask tag ((i + 1) land mask)

let find t k =
  let mask = Array.length t.slots - 1 in
  if mask < 0 then -1 else find_from t.slots mask (k + 1) (home mask k)

(* The empty slot ending [tag]'s probe run; [tag] must be absent. *)
let rec vacant_from slots mask tag i =
  match Array.unsafe_get slots i with
  | 0 -> i
  | e when e lsr payload_bits = tag -> invalid_arg "Packed_table.add: key already bound"
  | _ -> vacant_from slots mask tag ((i + 1) land mask)

let grow t =
  let old = t.slots and old_floats = t.floats in
  let cap = max 8 (2 * Array.length old) in
  let mask = cap - 1 in
  t.slots <- Array.make cap 0;
  if t.with_floats then t.floats <- Float.Array.make cap 0.0;
  Array.iteri
    (fun i e ->
      if e <> 0 then begin
        let tag = e lsr payload_bits in
        let j = vacant_from t.slots mask tag (home mask (tag - 1)) in
        t.slots.(j) <- e;
        if t.with_floats then Float.Array.set t.floats j (Float.Array.get old_floats i)
      end)
    old

let check_payload p op =
  if p < 0 || p > payload_mask then invalid_arg ("Packed_table." ^ op ^ ": payload out of range")

let add t k p =
  if k < 0 || k > max_key then invalid_arg "Packed_table.add: key out of range";
  check_payload p "add";
  if 4 * (t.len + 1) > 3 * Array.length t.slots then grow t;
  let mask = Array.length t.slots - 1 in
  let i = vacant_from t.slots mask (k + 1) (home mask k) in
  t.slots.(i) <- ((k + 1) lsl payload_bits) lor p;
  t.len <- t.len + 1;
  i

(* Close the hole at [hole] by walking the probe run after it: an entry
   at [j] whose home is not cyclically inside [(hole, j]] may move back
   into the hole, which then opens at [j]. *)
let rec shift_back t mask hole j =
  let e = t.slots.(j) in
  if e = 0 then t.slots.(hole) <- 0
  else if (j - home mask ((e lsr payload_bits) - 1)) land mask >= (j - hole) land mask then begin
    t.slots.(hole) <- e;
    if t.with_floats then Float.Array.set t.floats hole (Float.Array.get t.floats j);
    shift_back t mask j ((j + 1) land mask)
  end
  else shift_back t mask hole ((j + 1) land mask)

let remove t k =
  match find t k with
  | -1 -> ()
  | i ->
    t.len <- t.len - 1;
    if t.len = 0 then clear t
    else begin
      let mask = Array.length t.slots - 1 in
      shift_back t mask i ((i + 1) land mask)
    end

let key_at t i = match t.slots.(i) with 0 -> -1 | e -> (e lsr payload_bits) - 1

let payload_at t i = t.slots.(i) land payload_mask

let set_payload_at t i p =
  check_payload p "set_payload_at";
  t.slots.(i) <- (t.slots.(i) land lnot payload_mask) lor p

let floats t = t.floats
