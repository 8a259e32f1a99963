(* One 16-byte block: the 64-bit state at byte 0, the draw count at
   byte 8.  Both are read and written with the native-endian primitives
   inside the drawing function, so a draw updates them unboxed; a
   [mutable state : int64] field would box every new state. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let make state =
  let g = Bytes.create 16 in
  set64 g 0 state;
  set64 g 8 0L;
  g

let create seed = make (mix64 (Int64.of_int seed))

let copy = Bytes.copy

(* Inlined into each drawing function, so the new state and its mix stay
   unboxed up to the caller's conversion. *)
let[@inline] next g =
  let state = Int64.add (get64 g 0) golden_gamma in
  set64 g 0 state;
  set64 g 8 (Int64.succ (get64 g 8));
  mix64 state

let bits64 g = next g

let split g = make (next g)

let draws g = Int64.to_int (get64 g 8)

(* Non-negative 62-bit int from the top bits: keeps arithmetic on OCaml's
   63-bit native ints exact. *)
let bits62 g = Int64.to_int (Int64.shift_right_logical (next g) 2)

(* Rejection sampling to avoid modulo bias, as a top-level loop over
   explicit arguments: a local closure would be allocated per call. *)
let rec below g n limit =
  let v = bits62 g in
  if v >= limit then below g n limit else v mod n

let int g n =
  if n <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  let mask_range = 0x3FFF_FFFF_FFFF_FFFF in
  below g n (mask_range - (mask_range mod n))

let float g x =
  (* 53 random mantissa bits scaled to [0, 1). *)
  let u = Int64.to_int (Int64.shift_right_logical (next g) 11) in
  float_of_int u /. 9007199254740992.0 *. x

let exponential g mean =
  (* Inverse CDF; [1.0 -. u] keeps the log argument strictly positive. *)
  let u = float g 1.0 in
  -. mean *. log (1.0 -. u)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a
