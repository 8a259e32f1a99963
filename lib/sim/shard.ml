open Terradir_util

(* One shard lane of the (possibly parallel) engine: an event queue plus
   the per-lane execution context.  The engine owns an array of these;
   during a synchronized window each lane is driven by exactly one domain,
   so none of the mutable fields need atomicity — visibility across
   windows is published by the gang's barrier (mutex acquire/release).

   Entries carry the canonical total-order key (timestamp, tie) in the
   queue's (key, seq) slots and the executing-context id (owner server,
   or a negative pseudo-context) in the tag slot. *)

(* A per-destination deposit buffer, struct-of-arrays so a window's
   cross-lane traffic costs zero allocation once the arrays have grown to
   the high-water mark.  Capacity persists across windows; only [len]
   resets at the barrier. *)
type outbox = {
  mutable ob_time : floatarray;
  mutable ob_tie : int array;
  mutable ob_owner : int array;
  mutable ob_fn : (unit -> unit) array;
  mutable ob_len : int;
}

let nop () = ()

let outbox_create () =
  {
    ob_time = Float.Array.create 0;
    ob_tie = [||];
    ob_owner = [||];
    ob_fn = [||];
    ob_len = 0;
  }

type t = {
  idx : int; (* lane index: 0..K-1 shards; K = the coordinator lane *)
  queue : (unit -> unit) Pqueue.t;
  clock : floatarray;
      (* one cell: time of the event being / last executed, unboxed because
         it is written once per event *)
  mutable ctx : int; (* executing context: owner of the running event, -1 idle *)
  mutable tie : int; (* tie-break of the running event (obs stamping) *)
  mutable sub : int; (* intra-event emission counter (obs stamping) *)
  mutable executed : int;
  outboxes : outbox array;
      (* per-destination-lane deposits made while a window is open, merged
         by the coordinator at the barrier.  Insertion order is irrelevant
         — ties are globally unique. *)
}

(* The event heap's filler for slots that hold no event: one shared
   closure, so a popped event is not pinned by a spare slot. *)
let no_event () = ()

let create ~idx ~ndest =
  {
    idx;
    queue = Pqueue.create ~filler:no_event;
    clock = Float.Array.make 1 0.0;
    ctx = -1;
    tie = 0;
    sub = 0;
    executed = 0;
    outboxes = Array.init ndest (fun _ -> outbox_create ());
  }

let idx t = t.idx

let clock t = Float.Array.get t.clock 0

let set_clock t time = Float.Array.set t.clock 0 time

let ctx t = t.ctx

let tie t = t.tie

let next_sub t =
  let s = t.sub in
  t.sub <- s + 1;
  s

let executed t = t.executed

let outbox_grow b =
  let cap = max 16 (2 * Array.length b.ob_tie) in
  let time = Float.Array.create cap in
  Float.Array.blit b.ob_time 0 time 0 b.ob_len;
  b.ob_time <- time;
  let grow_int a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 b.ob_len;
    a'
  in
  b.ob_tie <- grow_int b.ob_tie;
  b.ob_owner <- grow_int b.ob_owner;
  let fn = Array.make cap nop in
  Array.blit b.ob_fn 0 fn 0 b.ob_len;
  b.ob_fn <- fn

let outbox_push t ~dest ~time ~tie ~owner f =
  let b = t.outboxes.(dest) in
  if b.ob_len >= Array.length b.ob_tie then outbox_grow b;
  let i = b.ob_len in
  Float.Array.unsafe_set b.ob_time i time;
  b.ob_tie.(i) <- tie;
  b.ob_owner.(i) <- owner;
  b.ob_fn.(i) <- f;
  b.ob_len <- i + 1

let drain_outboxes t ~f =
  let boxes = t.outboxes in
  for dest = 0 to Array.length boxes - 1 do
    let b = boxes.(dest) in
    if b.ob_len > 0 then begin
      for i = 0 to b.ob_len - 1 do
        f ~dest ~time:(Float.Array.unsafe_get b.ob_time i) ~tie:b.ob_tie.(i)
          ~owner:b.ob_owner.(i) b.ob_fn.(i);
        b.ob_fn.(i) <- nop (* drop the thunk: retained closures capture messages *)
      done;
      b.ob_len <- 0
    end
  done

let length t = Pqueue.length t.queue

let is_empty t = Pqueue.is_empty t.queue

(* The three peeks are undefined on an empty lane; callers check first. *)
let top_key t = Pqueue.top_key t.queue

let top_tie t = Pqueue.top_seq t.queue

let top_tag t = Pqueue.top_tag t.queue

let enqueue t ~key ~tie ~tag f = Pqueue.add_tagged t.queue ~key ~seq:tie ~tag f

(* Execute the lane's minimum event: advance the lane clock, expose the
   event's owner as the executing context for the duration of the
   handler, and drop back to idle (context -1, tie 0) after — idle-time
   API calls must not observe a stale context or stamp. *)
let pop_run t =
  let key = top_key t and tie = top_tie t and tag = top_tag t in
  let f = Pqueue.pop_exn t.queue in
  if key < clock t then
    invalid_arg
      (Printf.sprintf "Shard.pop_run: lane %d key regressed %h -> %h" t.idx (clock t) key);
  set_clock t key;
  t.ctx <- tag;
  t.tie <- tie;
  t.sub <- 0;
  t.executed <- t.executed + 1;
  f ();
  t.ctx <- -1;
  t.tie <- 0

(* Run every event strictly below the exclusive bound (time, tie). *)
let run_below t ~time ~tie =
  let continue = ref true in
  while !continue do
    if is_empty t then continue := false
    else begin
      let k = top_key t in
      if k < time || (k = time && top_tie t < tie) then pop_run t else continue := false
    end
  done
