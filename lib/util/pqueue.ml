(* Struct-of-arrays binary heap: keys, insertion sequences, tags, and
   values live in four parallel arrays instead of one boxed record per
   entry.  Long runs keep millions of pending events; with records every
   entry was a minor allocation that survived into the major heap.  The
   SoA layout allocates only on amortized growth, and the float keys are
   unboxed in their array.

   The [tag] is an opaque integer riding along with each entry (the
   engine stores the executing-context id there); it never participates
   in the ordering.  The caller supplies the sequence number, which the
   engine uses to impose a partition-independent total order. *)

type 'a t = {
  mutable keys : float array; (* positions [0, size) are live *)
  mutable seqs : int array;
  mutable tags : int array;
  mutable vals : 'a array; (* positions [size, ..) hold [filler] *)
  mutable size : int;
  filler : 'a;
}

let create ~filler = { keys = [||]; seqs = [||]; tags = [||]; vals = [||]; size = 0; filler }

let length q = q.size

let is_empty q = q.size = 0

let grow q =
  let capacity = Array.length q.keys in
  if q.size = capacity then begin
    (* Starting at 16 keeps short-lived engines (tests, micro benches) to
       a single growth of the four parallel arrays. *)
    let fresh_cap = max 16 (2 * capacity) in
    let fresh_keys = Array.make fresh_cap 0.0 in
    let fresh_seqs = Array.make fresh_cap 0 in
    let fresh_tags = Array.make fresh_cap 0 in
    let fresh_vals = Array.make fresh_cap q.filler in
    Array.blit q.keys 0 fresh_keys 0 q.size;
    Array.blit q.seqs 0 fresh_seqs 0 q.size;
    Array.blit q.tags 0 fresh_tags 0 q.size;
    Array.blit q.vals 0 fresh_vals 0 q.size;
    q.keys <- fresh_keys;
    q.seqs <- fresh_seqs;
    q.tags <- fresh_tags;
    q.vals <- fresh_vals
  end

(* Both sifts use the hole technique: the moving entry lives in locals,
   displaced entries shift once, and the entry is written exactly once at
   its final slot — half the array traffic of a swap per level, which the
   four parallel arrays would otherwise quadruple.  They compare keys in
   their own bodies: handing the moving key to a comparison function that
   is not inlined would box it at every call. *)

let add_tagged q ~key ~seq ~tag value =
  grow q;
  let i = ref q.size in
  q.size <- q.size + 1;
  (* Sift the hole up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if q.keys.(parent) > key || (q.keys.(parent) = key && q.seqs.(parent) > seq) then begin
      q.keys.(!i) <- q.keys.(parent);
      q.seqs.(!i) <- q.seqs.(parent);
      q.tags.(!i) <- q.tags.(parent);
      q.vals.(!i) <- q.vals.(parent);
      i := parent
    end
    else continue := false
  done;
  q.keys.(!i) <- key;
  q.seqs.(!i) <- seq;
  q.tags.(!i) <- tag;
  q.vals.(!i) <- value

let top_key q = q.keys.(0)

let top_seq q = q.seqs.(0)

let top_tag q = q.tags.(0)

(* Sift the last entry down from the root hole.  The vacated slot [n]
   gets the filler, so no spare slot pins a value: neither the popped one
   nor the moved one, which would outlive its own later pop there. *)
let pop_exn q =
  if q.size = 0 then invalid_arg "Pqueue.pop_exn: empty";
  let top = q.vals.(0) in
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    let keys = q.keys and seqs = q.seqs and tags = q.tags and vals = q.vals in
    let key = keys.(n) and seq = seqs.(n) and tag = tags.(n) and value = vals.(n) in
    vals.(n) <- q.filler;
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        (* The smaller child; ties go left. *)
        let r = l + 1 in
        let c =
          if r < n && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && seqs.(r) < seqs.(l))) then r
          else l
        in
        if keys.(c) < key || (keys.(c) = key && seqs.(c) < seq) then begin
          keys.(!i) <- keys.(c);
          seqs.(!i) <- seqs.(c);
          tags.(!i) <- tags.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    tags.(!i) <- tag;
    vals.(!i) <- value
  end
  else q.vals.(0) <- q.filler;
  top
