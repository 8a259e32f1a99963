(* A free list is a stack: recycled records are reused most-recent-first,
   which keeps the working set of pooled objects cache-warm.  The backing
   array starts empty and grows geometrically; [pop] leaves the popped
   slot's reference in place (the popped record is live in the caller, so
   the stale duplicate cannot pin garbage) and the next [put] overwrites
   it. *)

type 'a t = { mutable items : 'a array; mutable len : int }

let create () = { items = [||]; len = 0 }

let is_empty t = t.len = 0

let put t x =
  let cap = Array.length t.items in
  if t.len = cap then begin
    let grown = Array.make (max 16 (2 * cap)) x in
    Array.blit t.items 0 grown 0 t.len;
    t.items <- grown
  end;
  t.items.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Freelist.pop: empty";
  t.len <- t.len - 1;
  t.items.(t.len)
