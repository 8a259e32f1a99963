(* Log-bucketed histogram: 16 sub-buckets per octave (power of two), so
   quantile readouts carry at most ~3% relative error while min/max/count/
   sum stay exact.  Replaces reservoir sampling in reports: no RNG, no
   sampling noise, O(1) add. *)

let sub = 16

(* Octaves covered: binary exponents in [min_exp, max_exp).  Latencies sit
   around 2^-14..2^4 seconds and hop counts in 2^0..2^8; the range below
   is vastly wider and still only ~2 KiB per histogram. *)
let min_exp = -64

let max_exp = 64

let nbuckets = ((max_exp - min_exp) * sub) + 1 (* slot 0: values <= 0 *)

(* The float moments live in [moments] cells (sum, min, max) rather than
   in mutable float fields: this record mixes ints and floats, so each
   [add] would box three fresh floats and keep them alive from a
   long-lived histogram. *)
type t = { counts : int array; mutable count : int; moments : floatarray }

let i_sum = 0

let i_min = 1

let i_max = 2

let get_sum t = Float.Array.get t.moments i_sum

let get_min t = Float.Array.get t.moments i_min

let get_max t = Float.Array.get t.moments i_max

let set_sum t v = Float.Array.set t.moments i_sum v

let set_min t v = Float.Array.set t.moments i_min v

let set_max t v = Float.Array.set t.moments i_max v

let reset_moments t =
  set_sum t 0.0;
  set_min t infinity;
  set_max t neg_infinity

let create () =
  let t = { counts = Array.make nbuckets 0; count = 0; moments = Float.Array.create 3 } in
  reset_moments t;
  t

let reset t =
  Array.fill t.counts 0 nbuckets 0;
  t.count <- 0;
  reset_moments t

let index v =
  if v <= 0.0 || Float.is_nan v then 0
  else begin
    let m, e = Float.frexp v in
    (* m in [0.5, 1): spread over [sub] equal mantissa slices *)
    let s = int_of_float ((m -. 0.5) *. 2.0 *. float_of_int sub) in
    let s = if s < 0 then 0 else if s >= sub then sub - 1 else s in
    let e = if e < min_exp then min_exp else if e >= max_exp then max_exp - 1 else e in
    (((e - min_exp) * sub) + s) + 1
  end

(* Midpoint of bucket [i]'s value range — the quantile representative. *)
let value_of_index i =
  if i = 0 then 0.0
  else begin
    let i = i - 1 in
    let e = (i / sub) + min_exp in
    let s = i mod sub in
    let m = 0.5 +. ((float_of_int s +. 0.5) /. (2.0 *. float_of_int sub)) in
    Float.ldexp m e
  end

let add t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  set_sum t (get_sum t +. v);
  if v < get_min t then set_min t v;
  if v > get_max t then set_max t v

(* Integer state only: bucket counts and the total are exact under any
   merge order.  The float moments (sum/vmin/vmax) are deliberately NOT
   touched — partial float sums depend on the partition, so a
   byte-identical merge must set them from a source whose accumulation
   order is K-independent (see [set_moments]). *)
let absorb ~into src =
  for i = 0 to nbuckets - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  into.count <- into.count + src.count

(* Windowed readout: the per-bucket difference of two cumulative
   snapshots of the SAME value stream.  Bucket counts and the total are
   exact; the window's true extremes are unknown, so the float moments
   are bounded by the occupied bucket range (midpoints) — quantiles of
   the diff therefore carry the usual ~3% bucket error at the edges too.
   Deterministic: no RNG, no float accumulation order dependence beyond
   the subtraction of the two snapshots' sums. *)
let diff t ~since =
  let d = create () in
  let lo = ref (-1) and hi = ref (-1) in
  for i = 0 to nbuckets - 1 do
    let c = t.counts.(i) - since.counts.(i) in
    if c < 0 then invalid_arg "Hist.diff: since is not an earlier snapshot of t";
    d.counts.(i) <- c;
    if c > 0 then begin
      if !lo < 0 then lo := i;
      hi := i
    end
  done;
  d.count <- t.count - since.count;
  if d.count < 0 then invalid_arg "Hist.diff: since is not an earlier snapshot of t";
  set_sum d (get_sum t -. get_sum since);
  if d.count > 0 then begin
    set_min d (value_of_index !lo);
    set_max d (value_of_index !hi)
  end;
  d

let set_moments t ~sum ~vmin ~vmax =
  set_sum t sum;
  if t.count > 0 then begin
    set_min t vmin;
    set_max t vmax
  end

let count t = t.count

let sum t = get_sum t

let mean t = if t.count = 0 then 0.0 else get_sum t /. float_of_int t.count

let min_value t = if t.count = 0 then 0.0 else get_min t

let max_value t = if t.count = 0 then 0.0 else get_max t

let percentile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Hist.percentile: q outside [0, 1]";
  if t.count = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int t.count)) in
    let rank = if rank < 1 then 1 else rank in
    let acc = ref 0 and i = ref 0 and found = ref (nbuckets - 1) in
    (try
       while !i < nbuckets do
         acc := !acc + t.counts.(!i);
         if !acc >= rank then begin
           found := !i;
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    let v = value_of_index !found in
    (* the bucket midpoint can stick out past the observed extremes *)
    if v < get_min t then get_min t else if v > get_max t then get_max t else v
  end

let summary_fields t =
  [
    ("count", float_of_int t.count);
    ("mean", mean t);
    ("p50", percentile t 0.5);
    ("p95", percentile t 0.95);
    ("p99", percentile t 0.99);
    ("max", max_value t);
  ]
