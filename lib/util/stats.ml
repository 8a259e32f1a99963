(* The accumulator keeps its five running floats in a [floatarray] rather
   than mutable record fields: a record mixing [int] and [float] fields
   stores every float boxed, so each [add] on the old representation
   allocated fresh boxes for mean/m2/sum on the minor heap.  [floatarray]
   slots are unboxed — [add] allocates nothing.  The arithmetic below is
   the old code's, operation for operation: Welford's update and Chan's
   merge are sensitive to evaluation order in floating point, and every
   golden CSV pins the historical results. *)

type t = { mutable n : int; f : floatarray }

(* Slot layout. *)
let i_mean = 0

let i_m2 = 1 (* sum of squared deviations from the running mean *)

let i_min = 2

let i_max = 3

let i_sum = 4

let get = Float.Array.unsafe_get

let set = Float.Array.unsafe_set

let create () =
  let f = Float.Array.create 5 in
  set f i_mean 0.0;
  set f i_m2 0.0;
  set f i_min infinity;
  set f i_max neg_infinity;
  set f i_sum 0.0;
  { n = 0; f }

let add t x =
  let f = t.f in
  t.n <- t.n + 1;
  let mean = get f i_mean in
  let delta = x -. mean in
  let mean = mean +. (delta /. float_of_int t.n) in
  set f i_mean mean;
  set f i_m2 (get f i_m2 +. (delta *. (x -. mean)));
  if x < get f i_min then set f i_min x;
  if x > get f i_max then set f i_max x;
  set f i_sum (get f i_sum +. x)

let count t = t.n

let mean t = if t.n = 0 then 0.0 else get t.f i_mean

let variance t = if t.n < 2 then 0.0 else get t.f i_m2 /. float_of_int (t.n - 1)

let min_value t =
  if t.n = 0 then invalid_arg "Stats.min_value: empty";
  get t.f i_min

let max_value t =
  if t.n = 0 then invalid_arg "Stats.max_value: empty";
  get t.f i_max

let total t = get t.f i_sum

let copy t = { n = t.n; f = Float.Array.copy t.f }

let merge a b =
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
    let n = a.n + b.n in
    let delta = get b.f i_mean -. get a.f i_mean in
    let fa = float_of_int a.n and fb = float_of_int b.n and fn = float_of_int n in
    let f = Float.Array.create 5 in
    set f i_mean (get a.f i_mean +. (delta *. fb /. fn));
    set f i_m2 (get a.f i_m2 +. get b.f i_m2 +. (delta *. delta *. fa *. fb /. fn));
    set f i_min (Float.min (get a.f i_min) (get b.f i_min));
    set f i_max (Float.max (get a.f i_max) (get b.f i_max));
    set f i_sum (get a.f i_sum +. get b.f i_sum);
    { n; f }
  end
