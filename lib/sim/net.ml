open Terradir_util

type latency =
  | Constant of float
  | Uniform of { base : float; jitter : float }
  | Lognormal of { median : float; sigma : float }

type verdict = Delivered of float | Lost | Blocked

type partition_id = int

type partition = {
  p_id : partition_id;
  p_a : (int, unit) Hashtbl.t;
  p_b : (int, unit) Hashtbl.t;
  p_directed : bool;
}

type t = {
  rng : Splitmix.t;
  src_rngs : Splitmix.t array;
      (* per-source randomness streams ([create ~peers]): each sender
         draws loss/latency from its own stream, so the draw order seen
         by any one stream is the sender's event order — deterministic
         and independent of how servers are sharded across domains.
         [||] = the legacy single-stream network. *)
  obs : Terradir_obs.Obs.t;
  (* lint: boxed-float set by the chaos driver between events, a few times per run *)
  mutable p_loss : float;
  mutable latency : latency;
  mutable partitions : partition list;
  mutable next_partition : int;
  n_delivered : int array;
  n_lost : int array;
  n_blocked : int array;
      (* per-source counters in [~peers] mode (writes stay shard-local);
         length 1 otherwise.  Read back as sums. *)
}

let check_loss p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Net: loss must be in [0, 1]"

let check_latency = function
  | Constant d -> if d < 0.0 then invalid_arg "Net: constant latency must be non-negative"
  | Uniform { base; jitter } ->
    if base < 0.0 then invalid_arg "Net: base latency must be non-negative";
    if jitter < 0.0 || jitter > base then invalid_arg "Net: jitter must be in [0, base]"
  | Lognormal { median; sigma } ->
    if median <= 0.0 then invalid_arg "Net: lognormal median must be positive";
    if sigma < 0.0 then invalid_arg "Net: lognormal sigma must be non-negative"

let create ?(loss = 0.0) ?(latency = Constant 0.0) ?(obs = Terradir_obs.Obs.null) ?peers ~rng () =
  check_loss loss;
  check_latency latency;
  let src_rngs =
    match peers with
    | None -> [||]
    | Some n ->
      if n < 1 then invalid_arg "Net.create: peers must be >= 1";
      (* split in src order so the stream assignment is a pure function
         of the peer count, whatever the eventual sharding *)
      Array.init n (fun _ -> Splitmix.split rng)
  in
  let slots = max 1 (Array.length src_rngs) in
  {
    rng;
    src_rngs;
    obs;
    p_loss = loss;
    latency;
    partitions = [];
    next_partition = 0;
    n_delivered = Array.make slots 0;
    n_lost = Array.make slots 0;
    n_blocked = Array.make slots 0;
  }

let set_loss t p =
  check_loss p;
  t.p_loss <- p

let loss t = t.p_loss

let set_latency t l =
  check_latency l;
  t.latency <- l

let draw_latency t rng =
  match t.latency with
  | Constant d -> d
  | Uniform { base; jitter } ->
    if jitter = 0.0 then base else base -. jitter +. Splitmix.float rng (2.0 *. jitter)
  | Lognormal { median; sigma } -> Dist.lognormal rng ~mu:(log median) ~sigma

let sample_latency t = draw_latency t t.rng

let min_latency t =
  match t.latency with
  | Constant d -> d
  | Uniform { base; jitter } -> base -. jitter
  | Lognormal _ -> 0.0

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
  let per_src = Array.length t.src_rngs > 0 in
  let slot = if per_src then src else 0 in
  let rng = if per_src then t.src_rngs.(src) else t.rng in
  if blocked t ~src ~dst then begin
    t.n_blocked.(slot) <- t.n_blocked.(slot) + 1;
    if Terradir_obs.Obs.counters_on t.obs then
      (* lint: obs-in-hot-path fault events are rare and gated on the counters level *)
      Terradir_obs.Obs.record t.obs ~server:src (Terradir_obs.Event.Net_blocked { src; dst });
    Blocked
  end
  else if src <> dst && t.p_loss > 0.0 && Splitmix.float rng 1.0 < t.p_loss then begin
    t.n_lost.(slot) <- t.n_lost.(slot) + 1;
    if Terradir_obs.Obs.counters_on t.obs then
      (* lint: obs-in-hot-path fault events are rare and gated on the counters level *)
      Terradir_obs.Obs.record t.obs ~server:src (Terradir_obs.Event.Net_lost { src; dst });
    Lost
  end
  else begin
    t.n_delivered.(slot) <- t.n_delivered.(slot) + 1;
    Delivered (draw_latency t rng)
  end

let sum = Array.fold_left ( + ) 0

let delivered t = sum t.n_delivered

let lost t = sum t.n_lost

let blocked_count t = sum t.n_blocked
