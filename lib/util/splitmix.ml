type t = { mutable state : int64; mutable draws : int }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed); draws = 0 }

let copy g = { state = g.state; draws = g.draws }

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  g.draws <- g.draws + 1;
  mix64 g.state

let split g = { state = bits64 g; draws = 0 }

let draws g = g.draws

(* Non-negative 62-bit int from the top bits: keeps arithmetic on OCaml's
   63-bit native ints exact. *)
let bits62 g = Int64.to_int (Int64.shift_right_logical (bits64 g) 2)

let int g n =
  if n <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask_range = 0x3FFF_FFFF_FFFF_FFFF in
  let limit = mask_range - (mask_range mod n) in
  let rec draw () =
    let v = bits62 g in
    if v >= limit then draw () else v mod n
  in
  draw ()

let float g x =
  (* 53 random mantissa bits scaled to [0, 1). *)
  let u = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) in
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
