(* Reconstruct per-query span trees from a flight-recorder stream.

   The recorder gives a single chronological event stream; this module
   re-threads it by qid into one trace per query, pairing Queue_enter with
   Service_begin and Service_begin with Service_end per (server, attempt).
   Because the ring may have overwritten the head of a long run, matching
   is defensive: an end without its begin is ignored, a begin without its
   end stays open and is dropped rather than invented. *)

type seg_kind = Queue_wait | Service | Transit

type seg = {
  seg_kind : seg_kind;
  seg_server : int;
  seg_peer : int;  (* Transit: destination server; otherwise -1 *)
  seg_attempt : int;
  seg_start : float;
  seg_stop : float;
}

type outcome = Resolved of { latency : float; hops : int } | Dropped of string | In_flight

type t = {
  span_qid : int;
  span_src : int;
  span_dst : int;
  span_start : float;
  span_stop : float;
  span_outcome : outcome;
  span_retries : int;
  span_segs : seg list;
}

type building = {
  mutable b_src : int;
  mutable b_dst : int;
  (* lint: boxed-float span assembly runs once per exported trace, after the run *)
  mutable b_start : float;
  (* lint: boxed-float span assembly runs once per exported trace, after the run *)
  mutable b_stop : float;
  mutable b_outcome : outcome;
  mutable b_retries : int;
  mutable b_segs : seg list;  (* newest first *)
  mutable b_queued : (int * int * float) list;  (* (server, attempt, enter time) *)
  mutable b_serving : (int * int * float) list;  (* (server, attempt, begin time) *)
}

let fresh_building time =
  {
    b_src = -1;
    b_dst = -1;
    b_start = time;
    b_stop = time;
    b_outcome = In_flight;
    b_retries = 0;
    b_segs = [];
    b_queued = [];
    b_serving = [];
  }

(* Remove the most recent pending entry for (server, attempt); [None] when
   the opening event predates the retained window. *)
let take pending server attempt =
  let rec go acc = function
    | [] -> None
    | (s, a, t0) :: rest when s = server && a = attempt ->
      Some (t0, List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
  in
  go [] pending

let apply b ~time ~server (ev : Event.t) =
  if time > b.b_stop then b.b_stop <- time;
  match ev with
  | Event.Query_injected { dst; _ } ->
    b.b_src <- server;
    b.b_dst <- dst;
    b.b_start <- time
  | Event.Queue_enter { attempt; _ } -> b.b_queued <- (server, attempt, time) :: b.b_queued
  | Event.Service_begin { attempt; _ } ->
    (match take b.b_queued server attempt with
    | Some (t0, rest) ->
      b.b_queued <- rest;
      b.b_segs <-
        { seg_kind = Queue_wait; seg_server = server; seg_peer = -1; seg_attempt = attempt;
          seg_start = t0; seg_stop = time }
        :: b.b_segs
    | None -> ());
    b.b_serving <- (server, attempt, time) :: b.b_serving
  | Event.Service_end { attempt; _ } -> (
    match take b.b_serving server attempt with
    | Some (t0, rest) ->
      b.b_serving <- rest;
      b.b_segs <-
        { seg_kind = Service; seg_server = server; seg_peer = -1; seg_attempt = attempt;
          seg_start = t0; seg_stop = time }
        :: b.b_segs
    | None -> ())
  | Event.Net_transit { attempt; dst_server; delay; _ } ->
    let stop = time +. delay in
    if stop > b.b_stop then b.b_stop <- stop;
    b.b_segs <-
      { seg_kind = Transit; seg_server = server; seg_peer = dst_server; seg_attempt = attempt;
        seg_start = time; seg_stop = stop }
      :: b.b_segs
  | Event.Retransmit _ -> b.b_retries <- b.b_retries + 1
  | Event.Query_resolved { latency; hops; _ } -> b.b_outcome <- Resolved { latency; hops }
  | Event.Query_dropped { reason; _ } -> b.b_outcome <- Dropped reason
  | Event.Query_forwarded _ -> ()
  | Event.Replica_created _ | Event.Replica_evicted _ | Event.Replica_advertised _
  | Event.Session_trigger _ | Event.Session_started _ | Event.Session_aborted _
  | Event.Cache_hit _ | Event.Cache_miss _ | Event.Digest_prune _ | Event.Digest_shortcut _
  | Event.Net_lost _ | Event.Net_blocked _ | Event.Server_busy _ | Event.Server_idle
  | Event.Chaos_action _ -> ()

let finish qid b =
  let segs =
    List.stable_sort
      (fun a c ->
        let cmp = Float.compare a.seg_start c.seg_start in
        if cmp <> 0 then cmp else Float.compare a.seg_stop c.seg_stop)
      (List.rev b.b_segs)
  in
  {
    span_qid = qid;
    span_src = b.b_src;
    span_dst = b.b_dst;
    span_start = b.b_start;
    span_stop = b.b_stop;
    span_outcome = b.b_outcome;
    span_retries = b.b_retries;
    span_segs = segs;
  }

let of_entries entries =
  let tbl : (int, building) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun { Recorder.time; server; event } ->
      match Event.qid event with
      | None -> ()
      | Some qid ->
        let b =
          match Hashtbl.find_opt tbl qid with
          | Some b -> b
          | None ->
            let b = fresh_building time in
            Hashtbl.add tbl qid b;
            b
        in
        apply b ~time ~server event)
    entries;
  List.sort
    (fun a b -> Int.compare a.span_qid b.span_qid)
    (Hashtbl.fold (fun qid b acc -> finish qid b :: acc) tbl [])

let of_recorder r = of_entries (Recorder.to_list r)
