open Terradir_util

let poisson_gap rng ~rate =
  if rate <= 0.0 then invalid_arg "Dist.poisson_gap: rate must be positive";
  Splitmix.exponential rng (1.0 /. rate)

module Zipf = struct
  type t = { alpha : float; cdf : float array }

  let create ~alpha ~n =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    if alpha < 0.0 then invalid_arg "Zipf.create: alpha must be non-negative";
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (k + 1) ** alpha));
      cdf.(k) <- !acc
    done;
    let norm = !acc in
    for k = 0 to n - 1 do
      cdf.(k) <- cdf.(k) /. norm
    done;
    cdf.(n - 1) <- 1.0;
    { alpha; cdf }

  let alpha z = z.alpha

  let sample z rng =
    let u = Splitmix.float rng 1.0 in
    (* First index with cdf.(i) > u. *)
    let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if z.cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo

  let probability z k =
    if k < 0 || k >= Array.length z.cdf then invalid_arg "Zipf.probability: rank out of range";
    if k = 0 then z.cdf.(0) else z.cdf.(k) -. z.cdf.(k - 1)
end
