(* Flight recorder: fixed-capacity ring of stamped events.  The parallel
   arrays are allocated once at creation; recording writes a few slots
   and bumps a counter, so steady-state cost is independent of how long
   the run has been going.

   Each entry carries the engine's canonical sort stamp (tie, sub):
   (time, tie, sub) is globally unique and K-independent, so
   per-lane recorders of a parallel run can be merged into the exact ring
   a sequential run would have produced ([merged]). *)

type entry = { time : float; server : int; event : Event.t }

type t = {
  times : float array;
  servers : int array;
  events : Event.t array;
  ties : int array;
  subs : int array;
  capacity : int;
  mutable recorded : int;  (* total ever recorded, monotone *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Recorder.create: negative capacity";
  {
    times = Array.make (max capacity 1) 0.0;
    servers = Array.make (max capacity 1) 0;
    events = Array.make (max capacity 1) Event.Server_idle;
    ties = Array.make (max capacity 1) 0;
    subs = Array.make (max capacity 1) 0;
    capacity;
    recorded = 0;
  }

let record t ~time ~tie ~sub ~server event =
  if t.capacity > 0 then begin
    let i = t.recorded mod t.capacity in
    t.times.(i) <- time;
    t.servers.(i) <- server;
    t.events.(i) <- event;
    t.ties.(i) <- tie;
    t.subs.(i) <- sub;
    t.recorded <- t.recorded + 1
  end

let capacity t = t.capacity

let total t = t.recorded

let retained t = min t.recorded t.capacity

let iter t f =
  let n = retained t in
  let start = t.recorded - n in
  for k = 0 to n - 1 do
    let i = (start + k) mod t.capacity in
    f { time = t.times.(i); server = t.servers.(i); event = t.events.(i) }
  done

let to_list t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

(* Merge per-lane recorders into the ring a single recorder of
   [capacity] would hold: all surviving entries sorted by the canonical
   stamp, truncated to the newest [capacity].  Each lane retains its own
   newest [capacity] entries, which is a superset of its share of the
   global newest [capacity] — so the merge loses nothing the sequential
   ring would have kept.  [total] is preserved (sum over lanes) and the
   entries are laid out so that [iter]'s ring arithmetic still works. *)
let merged parts ~capacity =
  let out = create ~capacity in
  let entries = ref [] in
  let grand_total = ref 0 in
  List.iter
    (fun p ->
      grand_total := !grand_total + p.recorded;
      let n = retained p in
      let start = p.recorded - n in
      for k = 0 to n - 1 do
        let i = (start + k) mod p.capacity in
        entries := (p.times.(i), p.ties.(i), p.subs.(i), p.servers.(i), p.events.(i)) :: !entries
      done)
    parts;
  let sorted =
    List.sort
      (fun (t1, x1, s1, _, _) (t2, x2, s2, _, _) ->
        let c = Float.compare t1 t2 in
        if c <> 0 then c
        else
          let c = Int.compare x1 x2 in
          if c <> 0 then c else Int.compare s1 s2)
      !entries
  in
  let len = List.length sorted in
  let keep = min len (min capacity !grand_total) in
  let dropped = len - keep in
  if capacity > 0 then begin
    let k = ref 0 in
    List.iteri
      (fun j (time, tie, sub, server, event) ->
        if j >= dropped then begin
          let i = (!grand_total - keep + !k) mod capacity in
          out.times.(i) <- time;
          out.ties.(i) <- tie;
          out.subs.(i) <- sub;
          out.servers.(i) <- server;
          out.events.(i) <- event;
          incr k
        end)
      sorted;
    out.recorded <- !grand_total
  end;
  out
