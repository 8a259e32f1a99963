type t = {
  bin : float;
  mutable sums : float array;
  mutable maxima : float array;
  mutable counts : int array;
  mutable used : int; (* highest touched bin + 1 *)
}

let create ?(bin = 1.0) () =
  if bin <= 0.0 then invalid_arg "Timeseries.create: bin must be positive";
  { bin; sums = [||]; maxima = [||]; counts = [||]; used = 0 }

let ensure t idx =
  let capacity = Array.length t.sums in
  if idx >= capacity then begin
    let fresh = max 64 (max (idx + 1) (2 * capacity)) in
    let grow a init =
      let b = Array.make fresh init in
      Array.blit a 0 b 0 capacity;
      b
    in
    t.sums <- grow t.sums 0.0;
    t.maxima <- grow t.maxima 0.0;
    t.counts <- grow t.counts 0
  end;
  if idx + 1 > t.used then t.used <- idx + 1

let index t time =
  if time < 0.0 then invalid_arg "Timeseries: negative time";
  int_of_float (time /. t.bin)

let add t time value =
  let i = index t time in
  ensure t i;
  t.sums.(i) <- t.sums.(i) +. value;
  if value > t.maxima.(i) then t.maxima.(i) <- value;
  t.counts.(i) <- t.counts.(i) + 1

let incr t time = add t time 1.0

let observe_max t time value =
  let i = index t time in
  ensure t i;
  if value > t.maxima.(i) then t.maxima.(i) <- value;
  t.counts.(i) <- t.counts.(i) + 1

(* Exact in any partition order: per-bin sums are only ever merged
   pairwise from disjoint sample sets when each lane's +1.0 increments
   are integral, and counts/maxima are order-independent outright. *)
let merge_into ~into src =
  if into.bin <> src.bin then invalid_arg "Timeseries.merge_into: bin width mismatch";
  if src.used > 0 then begin
    ensure into (src.used - 1);
    for i = 0 to src.used - 1 do
      into.sums.(i) <- into.sums.(i) +. src.sums.(i);
      if src.maxima.(i) > into.maxima.(i) then into.maxima.(i) <- src.maxima.(i);
      into.counts.(i) <- into.counts.(i) + src.counts.(i)
    done
  end

let num_bins t = t.used

let sums t = Array.sub t.sums 0 t.used

let maxima t = Array.sub t.maxima 0 t.used

let counts t = Array.sub t.counts 0 t.used

let means t =
  Array.init t.used (fun i ->
      if t.counts.(i) = 0 then 0.0 else t.sums.(i) /. float_of_int t.counts.(i))

let smoothed_max t ~window =
  if window <= 0 then invalid_arg "Timeseries.smoothed_max: window must be positive";
  let m = maxima t in
  Array.init (Array.length m) (fun i ->
      let lo = max 0 (i - window + 1) in
      let acc = ref 0.0 in
      for j = lo to i do
        acc := !acc +. m.(j)
      done;
      !acc /. float_of_int (i - lo + 1))
