open Terradir_util

type latency = Constant of float | Uniform of { base : float; jitter : float }

type verdict = Delivered of float | Lost | Blocked

type partition_id = int

type partition = {
  p_id : partition_id;
  p_a : (int, unit) Hashtbl.t;
  p_b : (int, unit) Hashtbl.t;
  p_directed : bool;
}

type t = {
  rngs : Splitmix.t array;
      (* per-sender randomness streams: each sender draws loss/latency
         from its own stream, so the draw order seen by any one stream is
         the sender's event order — deterministic and independent of how
         servers are sharded across domains *)
  floor : float; (* min_latency at creation: the engine's lookahead *)
  (* lint: boxed-float set by the chaos driver between events, a few times per run *)
  mutable p_loss : float;
  mutable latency : latency;
  mutable partitions : partition list;
  mutable next_partition : int;
}

let check_loss p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Net: loss must be in [0, 1]"

let check_latency = function
  | Constant d -> if d < 0.0 then invalid_arg "Net: constant latency must be non-negative"
  | Uniform { base; jitter } ->
    if base < 0.0 then invalid_arg "Net: base latency must be non-negative";
    if jitter < 0.0 || jitter > base then invalid_arg "Net: jitter must be in [0, base]"

let floor_of = function Constant d -> d | Uniform { base; jitter } -> base -. jitter

let create ?(loss = 0.0) ?(latency = Constant 0.0) ~peers ~rng () =
  check_loss loss;
  check_latency latency;
  if peers < 1 then invalid_arg "Net.create: peers must be >= 1";
  {
    (* split in sender order so the stream assignment is a pure function
       of the peer count, whatever the eventual sharding *)
    rngs = Array.init peers (fun _ -> Splitmix.split rng);
    floor = floor_of latency;
    p_loss = loss;
    latency;
    partitions = [];
    next_partition = 0;
  }

let set_loss t p =
  check_loss p;
  t.p_loss <- p

let set_latency t l =
  check_latency l;
  if floor_of l < t.floor then
    invalid_arg "Net.set_latency: latency floor below the one fixed at creation";
  t.latency <- l

let min_latency t = floor_of t.latency

let partition ?(directed = false) t ~a ~b =
  if a = [] || b = [] then invalid_arg "Net.partition: empty side";
  let side ids =
    let h = Hashtbl.create (List.length ids) in
    List.iter (fun id -> Hashtbl.replace h id ()) ids;
    h
  in
  let p_a = side a and p_b = side b in
  (* lint: ordered existence check: raises iff the intersection is non-empty, in any visit order *)
  Hashtbl.iter
    (fun id () -> if Hashtbl.mem p_b id then invalid_arg "Net.partition: sides intersect")
    p_a;
  let id = t.next_partition in
  t.next_partition <- id + 1;
  t.partitions <- { p_id = id; p_a; p_b; p_directed = directed } :: t.partitions;
  id

let heal t id = t.partitions <- List.filter (fun p -> p.p_id <> id) t.partitions

let heal_all t = t.partitions <- []

let blocked t ~src ~dst =
  src <> dst
  && List.exists
       (fun p ->
         (Hashtbl.mem p.p_a src && Hashtbl.mem p.p_b dst)
         || ((not p.p_directed) && Hashtbl.mem p.p_b src && Hashtbl.mem p.p_a dst))
       t.partitions

let transmit t ~src ~dst =
  let rng = t.rngs.(src) in
  if blocked t ~src ~dst then Blocked
  else if src <> dst && t.p_loss > 0.0 && Splitmix.float rng 1.0 < t.p_loss then Lost
  else
    Delivered
      (match t.latency with
      | Constant d -> d
      | Uniform { base; jitter } ->
        if jitter = 0.0 then base else base -. jitter +. Splitmix.float rng (2.0 *. jitter))
