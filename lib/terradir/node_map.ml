open Terradir_util

type entry = { server : int; is_owner : bool; stamp : float }

(* One flat block per map: row [i] keeps the server id and owner flag
   packed as [server lsl 1 lor owner] at index [2i] of a [floatarray] —
   exact, since it is below 2^53 — and the stamp at [2i + 1].  No record,
   no per-entry block, no boxed float.  The row order is the historical
   one: owners first, then newest-first, server id as the tie-break
   ([insert_pos] below is total with a unique tie-break, so a deduped
   entry set has exactly one sorted form).  Maps remain immutable values;
   operations build fresh blocks, assembling intermediate states in a
   per-domain {!scratch} so the hot merge path allocates only its
   result. *)
type t = floatarray

let empty = Float.Array.create 0

let size t = Float.Array.length t lsr 1

let is_empty t = Float.Array.length t = 0

(* Inlined: a float returned from a call is boxed, and the pinned
   lookups ([mem], a subsumed [merge]) allocate nothing. *)
let[@inline] row_packed t i = int_of_float (Float.Array.get t (2 * i))

let[@inline] row_server t i = row_packed t i lsr 1

let[@inline] row_owner t i = row_packed t i land 1 <> 0

let[@inline] row_stamp t i = Float.Array.get t ((2 * i) + 1)

let pack ~server ~is_owner = (server lsl 1) lor (if is_owner then 1 else 0)

(* A fresh map of [n] rows, filled by [set_row]. *)
let make_rows n = Float.Array.create (2 * n)

let[@inline] set_row t i packed stamp =
  Float.Array.set t (2 * i) (float_of_int packed);
  Float.Array.set t ((2 * i) + 1) stamp

let entries t =
  List.init (size t) (fun i ->
      { server = row_server t i; is_owner = row_owner t i; stamp = row_stamp t i })

let servers t = List.init (size t) (fun i -> row_server t i)

(* Probes here are top-level recursions over explicit arguments, not local
   closures (a closure over [t] would be allocated per call), and read
   stamps in place rather than taking them as float arguments, which
   would box them. *)
let rec mem_from t s n i = i < n && (row_server t i = s || mem_from t s n (i + 1))

let mem t s = mem_from t s (size t) 0

let owner t = if size t > 0 && row_owner t 0 then Some (row_server t 0) else None

(* ------------------------------------------------------------------ *)
(* Scratch                                                             *)
(* ------------------------------------------------------------------ *)

type scratch = {
  mutable sc_ns : int array;
  mutable sc_stamp : floatarray;
  mutable sc_pool : int array; (* merge: remainder rows still drawable *)
  mutable sc_keep : bool array; (* merge: remainder rows chosen by draw *)
}

let scratch () =
  {
    sc_ns = Array.make 8 0;
    sc_stamp = Float.Array.create 8;
    sc_pool = Array.make 8 0;
    sc_keep = Array.make 8 false;
  }

let ensure sc n =
  if Array.length sc.sc_ns < n then begin
    let cap = max n (2 * Array.length sc.sc_ns) in
    let ns = Array.make cap 0 and stamp = Float.Array.create cap in
    Array.blit sc.sc_ns 0 ns 0 (Array.length sc.sc_ns);
    Float.Array.blit sc.sc_stamp 0 stamp 0 (Float.Array.length sc.sc_stamp);
    sc.sc_ns <- ns;
    sc.sc_stamp <- stamp;
    sc.sc_pool <- Array.make cap 0;
    sc.sc_keep <- Array.make cap false
  end

(* One workspace per domain, the same pattern as [Routing]'s: an
   operation runs start to finish on one domain and never re-enters
   another, so a domain-local scratch is never shared — and no server or
   cache carries one of its own. *)
let scratch_key = Domain.DLS.new_key scratch

(* The scratch row holding [server] among [0 .. n), or -1. *)
let rec row_of ns server n i =
  if i >= n then -1 else if ns.(i) lsr 1 = server then i else row_of ns server n (i + 1)

(* The first of rows [i .. n) that row [n] (the candidate, parked one past
   the live rows) does not sort after.  Owners first; ties broken
   newest-first, then by server id for determinism. *)
let rec insert_pos ns stamp n i =
  if i >= n then i
  else begin
    let c =
      match ((ns.(i) land 1, ns.(n) land 1) : int * int) with
      | 1, 0 -> 1
      | 0, 1 -> -1
      | _ -> (
        match Float.compare (Float.Array.get stamp i) (Float.Array.get stamp n) with
        | 0 -> Int.compare (ns.(n) lsr 1) (ns.(i) lsr 1)
        | c -> c)
    in
    if c <= 0 then i else insert_pos ns stamp n (i + 1)
  end

(* Fold one packed row into scratch rows [0 .. !len): combine with any
   existing row for the same server (newest stamp wins, owner flag is
   sticky), then place the result at its unique sort position.  Mirrors
   the historical [add_entry] list fold, shift for shift. *)
let insert_row sc len nrow srow =
  let ns = sc.sc_ns and stamp = sc.sc_stamp in
  let n = !len in
  (* Park the candidate one past the live rows ([ensure] sized the scratch
     for the insertion), then strip an existing row for the same server,
     combining it into the candidate. *)
  ns.(n) <- nrow;
  Float.Array.set stamp n srow;
  let n =
    match row_of ns (nrow lsr 1) n 0 with
    | -1 -> n
    | i ->
      ns.(n) <- ns.(n) lor (ns.(i) land 1);
      Float.Array.set stamp n (Float.max (Float.Array.get stamp i) (Float.Array.get stamp n));
      for j = i to n - 1 do
        ns.(j) <- ns.(j + 1);
        Float.Array.set stamp j (Float.Array.get stamp (j + 1))
      done;
      n - 1
  in
  (* Sorted insertion: before the first row it does not sort after. *)
  let at = insert_pos ns stamp n 0 in
  let nrow = ns.(n) and srow = Float.Array.get stamp n in
  for j = n downto at + 1 do
    ns.(j) <- ns.(j - 1);
    Float.Array.set stamp j (Float.Array.get stamp (j - 1))
  done;
  ns.(at) <- nrow;
  Float.Array.set stamp at srow;
  len := n + 1

(* Materialize scratch rows [0 .. n) as an immutable map. *)
let of_scratch sc n =
  if n = 0 then empty
  else begin
    let t = make_rows n in
    for i = 0 to n - 1 do
      set_row t i sc.sc_ns.(i) (Float.Array.get sc.sc_stamp i)
    done;
    t
  end

let load_scratch sc t =
  let n = size t in
  ensure sc n;
  for i = 0 to n - 1 do
    sc.sc_ns.(i) <- row_packed t i;
    Float.Array.set sc.sc_stamp i (row_stamp t i)
  done;
  n

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let singleton ?(is_owner = false) ~server ~stamp () =
  let t = make_rows 1 in
  set_row t 0 (pack ~server ~is_owner) stamp;
  t

let of_entries ~max entries =
  if max < 1 then invalid_arg "Node_map.of_entries: max must be >= 1";
  let sc = Domain.DLS.get scratch_key in
  ensure sc (List.length entries);
  let len = ref 0 in
  List.iter
    (fun e -> insert_row sc len (pack ~server:e.server ~is_owner:e.is_owner) e.stamp)
    entries;
  of_scratch sc (min !len max)

let truncate ~max t =
  if max < 1 then invalid_arg "Node_map.truncate: max must be >= 1";
  if size t <= max then t else Float.Array.sub t 0 (2 * max)

(* [t] already satisfies the sorted/deduped invariant: one insertion pass
   suffices.  (The historical error message is [of_entries]'s — kept
   verbatim, callers match on it.) *)
let add ~max t entry =
  if max < 1 then invalid_arg "Node_map.of_entries: max must be >= 1";
  let sc = Domain.DLS.get scratch_key in
  ensure sc (size t + 1);
  let len = ref (load_scratch sc t) in
  insert_row sc len (pack ~server:entry.server ~is_owner:entry.is_owner) entry.stamp;
  of_scratch sc (min !len max)

(* [add] with a survival guarantee: the added server's entry is never
   truncated out.  Needed for a host's own entry — the map a host
   advertises must include itself, but a plain [add] of a non-owner self
   entry can lose it to truncation when [max] same-or-newer entries sort
   first (owners pinned ahead, equal stamps broken by lower server id).
   When the entry falls past the cut, the lowest-priority kept non-owner
   is evicted in its favor; if every kept entry is an owner (only possible
   once owners alone fill the map), the map keeps its owners — owners are
   never displaced.  The pinned row lands in the last kept slot, which is
   still its sort position relative to the surviving rows. *)
let add_pinned ~max t entry =
  if max < 1 then invalid_arg "Node_map.add_pinned: max must be >= 1";
  let sc = Domain.DLS.get scratch_key in
  ensure sc (size t + 1);
  let len = ref (load_scratch sc t) in
  insert_row sc len (pack ~server:entry.server ~is_owner:entry.is_owner) entry.stamp;
  let kept = min !len max in
  let in_kept =
    let rec go i = i < kept && (sc.sc_ns.(i) lsr 1 = entry.server || go (i + 1)) in
    go 0
  in
  if (not in_kept) && not (sc.sc_ns.(kept - 1) land 1 <> 0) then begin
    (* Refetch from the combined rows: owner stickiness and stamp max may
       have merged [entry] with an existing one. *)
    let rec pinned i = if sc.sc_ns.(i) lsr 1 = entry.server then i else pinned (i + 1) in
    let p = pinned kept in
    sc.sc_ns.(kept - 1) <- sc.sc_ns.(p);
    Float.Array.set sc.sc_stamp (kept - 1) (Float.Array.get sc.sc_stamp p)
  end;
  of_scratch sc kept

let remove t s =
  if not (mem t s) then t
  else begin
    let n = size t in
    let out = make_rows (n - 1) in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if row_server t i <> s then begin
        set_row out !j (row_packed t i) (row_stamp t i);
        incr j
      end
    done;
    if !j = 0 then empty else out
  end

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)
(* ------------------------------------------------------------------ *)

(* [subsumes a b]: merging [b] into [a] cannot change [a] — every entry of
   [b] is already present with an equal-or-newer stamp and owner flag.  The
   common case on busy paths (the same maps circulate), worth a scan to
   avoid reallocating stored maps. *)
let rec covered a na b i j =
  j < na
  && ((row_server a j = row_server b i
       && row_stamp a j >= row_stamp b i
       && (row_owner a j || not (row_owner b i)))
     || covered a na b i (j + 1))

let rec subsumes_from a na b nb i =
  i >= nb || (covered a na b i 0 && subsumes_from a na b nb (i + 1))

let subsumes a b = subsumes_from a (size a) b (size b) 0

let merge ?scratch ~max rng a b =
  if max < 1 then invalid_arg "Node_map.merge: max must be >= 1";
  if (a == b || subsumes a b) && size a <= max then a
  else begin
    let sc = match scratch with Some sc -> sc | None -> Domain.DLS.get scratch_key in
    ensure sc (size a + size b);
    (* Both inputs are sorted and deduped (the representation invariant),
       so folding [b] into [a] yields the combined set already in sorted
       order — owners form a prefix, the rest is newest-first. *)
    let len = ref (load_scratch sc a) in
    for i = 0 to size b - 1 do
      insert_row sc len (row_packed b i) (row_stamp b i)
    done;
    let total = !len in
    let owners_total =
      let rec go i = if i < total && sc.sc_ns.(i) land 1 <> 0 then go (i + 1) else i in
      go 0
    in
    let owners = min owners_total max in
    let slots = max - owners in
    if slots <= 0 then of_scratch sc owners
    else begin
      (* Keep the newest half of the remaining budget, fill the rest
         randomly from what is left so maps decorrelate across servers.
         The draw is uniform without replacement over the remainder rows
         in their sorted order — the pool is compacted by shifting, never
         swapping, so each RNG draw indexes exactly the position the
         historical list-based draw did. *)
      let rest = total - owners_total in
      let newest = min ((slots + 1) / 2) rest in
      let rem_start = owners_total + newest in
      let rem_len = total - rem_start in
      let want = slots - newest in
      let picked = ref 0 in
      (* Clear the remainder flags unconditionally: a reused scratch keeps
         [sc_keep] from the previous merge, and the emit pass below reads
         every remainder row's flag even when no draw happens. *)
      for i = rem_start to total - 1 do
        sc.sc_keep.(i) <- false
      done;
      if want > 0 && rem_len > 0 then begin
        let pool = sc.sc_pool and keep = sc.sc_keep in
        for i = 0 to rem_len - 1 do
          pool.(i) <- rem_start + i
        done;
        let plen = ref rem_len in
        while !picked < want && !plen > 0 do
          let i = Splitmix.int rng !plen in
          keep.(pool.(i)) <- true;
          for j = i to !plen - 2 do
            pool.(j) <- pool.(j + 1)
          done;
          decr plen;
          incr picked
        done
      end;
      let out = make_rows (owners + newest + !picked) in
      let j = ref 0 in
      let emit i =
        set_row out !j sc.sc_ns.(i) (Float.Array.get sc.sc_stamp i);
        incr j
      in
      for i = 0 to owners - 1 do
        emit i
      done;
      for i = owners_total to rem_start - 1 do
        emit i
      done;
      for i = rem_start to total - 1 do
        if sc.sc_keep.(i) then emit i
      done;
      out
    end
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* Keep entries whose server satisfies [f]; owner entries are exempt (map
   filtering is conservative and must never orphan a node).  Counts first:
   when nothing is pruned — the overwhelmingly common case on the routing
   path — the input map is returned as-is, allocation-free. *)
let filter t ~f =
  let n = size t in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if row_owner t i || f (row_server t i) then incr kept
  done;
  if !kept = n then t
  else if !kept = 0 then empty
  else begin
    let out = make_rows !kept in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if row_owner t i || f (row_server t i) then begin
        set_row out !j (row_packed t i) (row_stamp t i);
        incr j
      end
    done;
    out
  end

(* Count-then-walk: one draw on the eligible count, none when empty, so
   RNG consumption matches every historical trajectory. *)
let random_server ?exclude t rng =
  let n = size t in
  let excluded s = match exclude with Some x -> s = x | None -> false in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if not (excluded (row_server t i)) then incr count
  done;
  if !count = 0 then None
  else begin
    let want = ref (Splitmix.int rng !count) in
    let found = ref (-1) in
    let i = ref 0 in
    while !found < 0 do
      let s = row_server t !i in
      if not (excluded s) then begin
        if !want = 0 then found := s else decr want
      end;
      incr i
    done;
    Some !found
  end

let pp fmt t =
  Format.fprintf fmt "{%s}"
    (String.concat "; "
       (List.map
          (fun e -> Printf.sprintf "%d%s@%.2f" e.server (if e.is_owner then "*" else "") e.stamp)
          (entries t)))
