(* Backed by a single unboxed [floatarray] rather than a record: the old
   mixed record (float options next to mutable floats) boxed every float
   field, so each begin_busy/end_busy — once per message per server —
   allocated and dragged the write barrier.  Cells 5 and 6 encode their
   option as NaN-for-None; all other values are ordinary finite floats,
   so the encoding is unambiguous. *)

type t = floatarray

(* Cell layout. *)
let i_window = 0
let i_window_start = 1
let i_busy_in_window = 2
let i_last_window_load = 3
let i_prev_window_load = 4
let i_adjustment = 5 (* NaN = none *)
let i_busy_since = 6 (* NaN = none *)
let i_total_busy = 7
let i_last_event = 8
let cells = 9

let get = Float.Array.get
let set = Float.Array.set

let create ~window =
  if window <= 0.0 then invalid_arg "Load_meter.create: window must be positive";
  let t = Float.Array.make cells 0.0 in
  set t i_window window;
  set t i_adjustment Float.nan;
  set t i_busy_since Float.nan;
  t

(* Roll completed windows up to [now].  Busy intervals spanning a boundary
   are split at the boundary. *)
let advance t now =
  let w = get t i_window in
  while now >= get t i_window_start +. w do
    let boundary = get t i_window_start +. w in
    let busy_since = get t i_busy_since in
    if not (Float.is_nan busy_since) then begin
      set t i_busy_in_window (get t i_busy_in_window +. (boundary -. busy_since));
      set t i_total_busy (get t i_total_busy +. (boundary -. busy_since));
      set t i_busy_since boundary
    end;
    set t i_prev_window_load (get t i_last_window_load);
    set t i_last_window_load (Float.min 1.0 (get t i_busy_in_window /. w));
    set t i_busy_in_window 0.0;
    set t i_window_start boundary;
    (* A completed measurement supersedes the hysteresis adjustment. *)
    set t i_adjustment Float.nan
  done

let check_time t now op =
  if now < get t i_last_event then invalid_arg ("Load_meter." ^ op ^ ": time regressed");
  set t i_last_event now

let begin_busy t now =
  check_time t now "begin_busy";
  advance t now;
  if not (Float.is_nan (get t i_busy_since)) then invalid_arg "Load_meter.begin_busy: already busy";
  set t i_busy_since now

let end_busy t now =
  check_time t now "end_busy";
  advance t now;
  let busy_since = get t i_busy_since in
  if Float.is_nan busy_since then invalid_arg "Load_meter.end_busy: not busy";
  set t i_busy_in_window (get t i_busy_in_window +. (now -. busy_since));
  set t i_total_busy (get t i_total_busy +. (now -. busy_since));
  set t i_busy_since Float.nan

let is_busy t = not (Float.is_nan (get t i_busy_since))

let raw_load t now =
  advance t now;
  get t i_last_window_load

let load t now =
  advance t now;
  let a = get t i_adjustment in
  if Float.is_nan a then get t i_last_window_load else a

let sustained_load t now =
  advance t now;
  let a = get t i_adjustment in
  if Float.is_nan a then Float.min (get t i_last_window_load) (get t i_prev_window_load) else a

let set_adjustment t v = set t i_adjustment (Float.max 0.0 (Float.min 1.0 v))

let busy_fraction_so_far t now =
  advance t now;
  let busy_since = get t i_busy_since in
  let live = if Float.is_nan busy_since then 0.0 else now -. busy_since in
  let elapsed = now -. get t i_window_start in
  if elapsed <= 0.0 then 0.0
  else Float.min 1.0 ((get t i_busy_in_window +. live) /. elapsed)

let total_busy_time t now =
  let busy_since = get t i_busy_since in
  let live = if Float.is_nan busy_since then 0.0 else now -. busy_since in
  get t i_total_busy +. live
