(* One [Bytes] block per filter, with no record or bit-set object in front
   of it: an 8-byte header — the bit count m as three little-endian 16-bit
   words, then k — followed by the bits, bit i at byte [header + i/8].  A
   membership test reads the header and its first probed byte from the
   same block. *)
type t = Bytes.t

let header = 8

let num_bits t =
  Bytes.get_uint16_le t 0 lor (Bytes.get_uint16_le t 2 lsl 16) lor (Bytes.get_uint16_le t 4 lsl 32)

let num_hashes t = Bytes.get_uint16_le t 6

(* SplitMix64 finalizer as an integer hash; two independent hashes come from
   salting the input with distinct odd constants. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Truncate to non-negative native ints. *)
let[@inline] mask v = Int64.to_int (Int64.shift_right_logical v 2)

(* An element's hash pair (h1, h2), both derived from one finalized [raw]. *)
let[@inline] raw x = mix64 (Int64.of_int x)

let[@inline] h1_of r = mask r

let[@inline] h2_of r = mask (mix64 (Int64.add r 0x9E3779B97F4A7C15L)) lor 1 (* odd stride avoids short probe cycles *)

let create ?(bits_per_element = 10) ?(hashes = 7) ~expected () =
  if expected <= 0 then invalid_arg "Bloom.create: expected must be positive";
  if bits_per_element <= 0 then invalid_arg "Bloom.create: bits_per_element must be positive";
  if hashes <= 0 then invalid_arg "Bloom.create: hashes must be positive";
  if hashes > 0xFFFF then invalid_arg "Bloom.create: hashes must be at most 65535";
  let m = max 64 (expected * bits_per_element) in
  let t = Bytes.make (header + ((m + 7) / 8)) '\000' in
  Bytes.set_uint16_le t 0 (m land 0xFFFF);
  Bytes.set_uint16_le t 2 ((m lsr 16) land 0xFFFF);
  Bytes.set_uint16_le t 4 ((m lsr 32) land 0xFFFF);
  Bytes.set_uint16_le t 6 hashes;
  t

let hash_into dst i x =
  let r = raw x in
  dst.(2 * i) <- h1_of r;
  dst.((2 * i) + 1) <- h2_of r

(* Kirsch–Mitzenmacher probe i of k: bit [(h1 + i*h2) mod m]. *)
let[@inline] position m h1 h2 i =
  let pos = (h1 + (i * h2)) mod m in
  if pos < 0 then pos + m else pos

let[@inline] bit_set t pos =
  Char.code (Bytes.unsafe_get t (header + (pos lsr 3))) land (1 lsl (pos land 7)) <> 0

let rec all_set t m k h1 h2 i = i >= k || (bit_set t (position m h1 h2 i) && all_set t m k h1 h2 (i + 1))

let mem_hashed t h1 h2 = all_set t (num_bits t) (num_hashes t) h1 h2 0

let add t x =
  let m = num_bits t and r = raw x in
  let h1 = h1_of r and h2 = h2_of r in
  for i = 0 to num_hashes t - 1 do
    let pos = position m h1 h2 i in
    let byte = header + (pos lsr 3) in
    Bytes.unsafe_set t byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t byte) lor (1 lsl (pos land 7))))
  done

let mem t x =
  let r = raw x in
  mem_hashed t (h1_of r) (h2_of r)

let popcount_byte =
  (* 256-entry popcount table, built once. *)
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

let count_set t =
  let n = ref 0 in
  for i = header to Bytes.length t - 1 do
    n := !n + popcount_byte (Bytes.unsafe_get t i)
  done;
  !n

let fill_ratio t = float_of_int (count_set t) /. float_of_int (num_bits t)

let cardinality_estimate t =
  let m = float_of_int (num_bits t) in
  let x = float_of_int (count_set t) in
  if x >= m then infinity else -.m /. float_of_int (num_hashes t) *. log (1.0 -. (x /. m))

let false_positive_rate t = fill_ratio t ** float_of_int (num_hashes t)

let reset t = Bytes.fill t header (Bytes.length t - header) '\000'

let copy = Bytes.copy

(* The header carries m and k, so equal blocks are equal filters. *)
let equal = Bytes.equal

let of_list ?bits_per_element ?hashes elements =
  let t = create ?bits_per_element ?hashes ~expected:(max 1 (List.length elements)) () in
  List.iter (add t) elements;
  t

let of_iter ?bits_per_element ?hashes ~expected iter =
  let t = create ?bits_per_element ?hashes ~expected:(max 1 expected) () in
  iter (add t);
  t
