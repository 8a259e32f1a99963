(* Order statistics for the report.

   [quartiles] follows Python's [statistics.quantiles(values, n=4)] (its
   default "exclusive" method), so the spread printed here is the one a
   reader recomputes from the per-episode values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantile.median: no values"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* (q1, q3).  With one value both quartiles are that value. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantile.quartiles: no values"
  else if n = 1 then (a.(0), a.(0))
  else begin
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 3)
  end

(* Index-based percentile of raw samples (nearest rank). *)
let nearest_rank xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Quantile of a [Terradir_obs.Hist], linearly interpolated inside the
   bucket that holds it.  [Hist.percentile] reads out the bucket midpoint,
   so two runs whose quantile falls in the same bucket would report the
   same number; interpolating by rank inside the bucket keeps the readout
   continuous.  Uses only the public readout plus the layout the
   interface documents (16 equal sub-buckets per power-of-two octave):
   the rank range of the bucket is found by bisection on
   [Hist.percentile]. *)
let of_hist h q =
  let module Hist = Terradir_obs.Hist in
  let n = Hist.count h in
  if n = 0 then 0.0
  else begin
    let at rank = Hist.percentile h ((float_of_int rank -. 0.5) /. float_of_int n) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    let v = at rank in
    (* first rank in [lo, hi] satisfying the monotone predicate [p] *)
    let rec first lo hi p =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if p mid then first lo mid p else first (mid + 1) hi p
      end
    in
    let lo = first 1 rank (fun r -> Float.equal (at r) v) in
    let hi = first rank (n + 1) (fun r -> r > n || not (Float.equal (at r) v)) - 1 in
    if v <= 0.0 then v
    else begin
      let m, e = Float.frexp v in
      let s = Float.floor ((m -. 0.5) *. 32.0) in
      let lower = Float.ldexp (0.5 +. (s /. 32.0)) e in
      let upper = Float.ldexp (0.5 +. ((s +. 1.0) /. 32.0)) e in
      let frac = (float_of_int (rank - lo) +. 0.5) /. float_of_int (hi - lo + 1) in
      let x = lower +. (frac *. (upper -. lower)) in
      Float.min (Hist.max_value h) (Float.max (Hist.min_value h) x)
    end
  end
