open Terradir_util

type t = { bits : Bitset.t; k : int }

(* SplitMix64 finalizer as an integer hash; two independent hashes come from
   salting the input with distinct odd constants. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let hash_pair x =
  let h1 = mix64 (Int64.of_int x) in
  let h2 = mix64 (Int64.add h1 0x9E3779B97F4A7C15L) in
  (* Truncate to non-negative native ints. *)
  let mask v = Int64.to_int (Int64.shift_right_logical v 2) in
  (mask h1, mask h2 lor 1 (* odd stride avoids short probe cycles *))

let create ?(bits_per_element = 10) ?(hashes = 7) ~expected () =
  if expected <= 0 then invalid_arg "Bloom.create: expected must be positive";
  if bits_per_element <= 0 then invalid_arg "Bloom.create: bits_per_element must be positive";
  if hashes <= 0 then invalid_arg "Bloom.create: hashes must be positive";
  { bits = Bitset.create (max 64 (expected * bits_per_element)); k = hashes }

type hashed = int * int

let hash = hash_pair

let probe_hashed t (h1, h2) f =
  let m = Bitset.length t.bits in
  let rec go i =
    if i >= t.k then true
    else
      let pos = (h1 + (i * h2)) mod m in
      let pos = if pos < 0 then pos + m else pos in
      f pos && go (i + 1)
  in
  go 0

let probe t x f = probe_hashed t (hash_pair x) f

let add t x =
  ignore
    (probe t x (fun pos ->
         Bitset.set t.bits pos;
         true))

let mem t x = probe t x (fun pos -> Bitset.mem t.bits pos)

let mem_hashed t h = probe_hashed t h (fun pos -> Bitset.mem t.bits pos)

let fill_ratio t =
  float_of_int (Bitset.count t.bits) /. float_of_int (Bitset.length t.bits)

let cardinality_estimate t =
  let m = float_of_int (Bitset.length t.bits) in
  let x = float_of_int (Bitset.count t.bits) in
  if x >= m then infinity else -.m /. float_of_int t.k *. log (1.0 -. (x /. m))

let false_positive_rate t = fill_ratio t ** float_of_int t.k

let reset t = Bitset.reset t.bits

let copy t = { bits = Bitset.copy t.bits; k = t.k }

let equal a b = a.k = b.k && Bitset.equal a.bits b.bits

let num_bits t = Bitset.length t.bits

let of_list ?bits_per_element ?hashes elements =
  let t = create ?bits_per_element ?hashes ~expected:(max 1 (List.length elements)) () in
  List.iter (add t) elements;
  t

let of_iter ?bits_per_element ?hashes ~expected iter =
  let t = create ?bits_per_element ?hashes ~expected:(max 1 expected) () in
  iter (add t);
  t
