open Terradir_util
module Hist = Terradir_obs.Hist

type t = {
  mutable injected : int;
  mutable resolved : int;
  mutable dropped_queue : int;
  mutable dropped_hops : int;
  mutable dropped_dead_end : int;
  mutable dropped_server_dead : int;
  mutable dropped_timeout : int;
  mutable net_lost : int;
  mutable net_blocked : int;
  mutable query_retransmits : int;
  mutable fetch_retransmits : int;
  mutable late_replies : int;
  mutable replicas_created : int;
  mutable replicas_evicted : int;
  mutable control_messages : int;
  mutable sessions_started : int;
  mutable sessions_aborted : int;
  mutable query_forwards : int;
  mutable shortcut_forwards : int;
  mutable stale_forwards : int;
  mutable data_requests : int;
  mutable data_completed : int;
  mutable data_dropped : int;
  latency : Stats.t;
  latency_hist : Hist.t;
  hops : Stats.t;
  hops_hist : Hist.t;
  data_latency : Stats.t;
  meta_lag : Stats.t;
  injected_ts : Timeseries.t;
  drops_ts : Timeseries.t;
  replicas_ts : Timeseries.t;
  load_mean_ts : Timeseries.t;
  load_max_ts : Timeseries.t;
}

let create () =
  {
    injected = 0;
    resolved = 0;
    dropped_queue = 0;
    dropped_hops = 0;
    dropped_dead_end = 0;
    dropped_server_dead = 0;
    dropped_timeout = 0;
    net_lost = 0;
    net_blocked = 0;
    query_retransmits = 0;
    fetch_retransmits = 0;
    late_replies = 0;
    replicas_created = 0;
    replicas_evicted = 0;
    control_messages = 0;
    sessions_started = 0;
    sessions_aborted = 0;
    query_forwards = 0;
    shortcut_forwards = 0;
    stale_forwards = 0;
    data_requests = 0;
    data_completed = 0;
    data_dropped = 0;
    latency = Stats.create ();
    latency_hist = Hist.create ();
    hops = Stats.create ();
    hops_hist = Hist.create ();
    data_latency = Stats.create ();
    meta_lag = Stats.create ();
    injected_ts = Timeseries.create ();
    drops_ts = Timeseries.create ();
    replicas_ts = Timeseries.create ();
    load_mean_ts = Timeseries.create ();
    load_max_ts = Timeseries.create ();
  }

let dropped_total t =
  t.dropped_queue + t.dropped_hops + t.dropped_dead_end + t.dropped_server_dead
  + t.dropped_timeout

let drop t reason ~now =
  (match reason with
  | Types.Queue_full -> t.dropped_queue <- t.dropped_queue + 1
  | Types.Hop_budget -> t.dropped_hops <- t.dropped_hops + 1
  | Types.Dead_end -> t.dropped_dead_end <- t.dropped_dead_end + 1
  | Types.Server_dead -> t.dropped_server_dead <- t.dropped_server_dead + 1
  | Types.Timed_out -> t.dropped_timeout <- t.dropped_timeout + 1);
  Timeseries.incr t.drops_ts now

(* The latency/hops [Stats] live per-server in the cluster (so a
   multi-domain run can fold them back in a shard-count-independent
   order); [resolve] only maintains the lane-local counter and the
   integer histogram state.  [merged] reunites the two. *)
let resolve t ~latency ~hops =
  t.resolved <- t.resolved + 1;
  Hist.add t.latency_hist latency;
  Hist.add t.hops_hist (float_of_int hops)

let replica_created t ~now =
  t.replicas_created <- t.replicas_created + 1;
  Timeseries.incr t.replicas_ts now

(* Combine per-lane parts into the single [t] a one-domain run of the
   same schedule would report.  Counters and histogram bucket counts are
   integers (exact in any order); time-series bins carry +1.0 increments
   or single-writer samples (see [Timeseries.merge_into]); the float
   distributions come in pre-folded from the cluster's per-server arrays
   (server-id order — independent of the shard count), and the
   histograms' float moments are re-derived from them because both saw
   the identical value stream. *)
let merged ~parts ~latency ~hops ~data_latency ~meta_lag =
  let out = { (create ()) with latency; hops; data_latency; meta_lag } in
  List.iter
    (fun p ->
      out.injected <- out.injected + p.injected;
      out.resolved <- out.resolved + p.resolved;
      out.dropped_queue <- out.dropped_queue + p.dropped_queue;
      out.dropped_hops <- out.dropped_hops + p.dropped_hops;
      out.dropped_dead_end <- out.dropped_dead_end + p.dropped_dead_end;
      out.dropped_server_dead <- out.dropped_server_dead + p.dropped_server_dead;
      out.dropped_timeout <- out.dropped_timeout + p.dropped_timeout;
      out.net_lost <- out.net_lost + p.net_lost;
      out.net_blocked <- out.net_blocked + p.net_blocked;
      out.query_retransmits <- out.query_retransmits + p.query_retransmits;
      out.fetch_retransmits <- out.fetch_retransmits + p.fetch_retransmits;
      out.late_replies <- out.late_replies + p.late_replies;
      out.replicas_created <- out.replicas_created + p.replicas_created;
      out.replicas_evicted <- out.replicas_evicted + p.replicas_evicted;
      out.control_messages <- out.control_messages + p.control_messages;
      out.sessions_started <- out.sessions_started + p.sessions_started;
      out.sessions_aborted <- out.sessions_aborted + p.sessions_aborted;
      out.query_forwards <- out.query_forwards + p.query_forwards;
      out.shortcut_forwards <- out.shortcut_forwards + p.shortcut_forwards;
      out.stale_forwards <- out.stale_forwards + p.stale_forwards;
      out.data_requests <- out.data_requests + p.data_requests;
      out.data_completed <- out.data_completed + p.data_completed;
      out.data_dropped <- out.data_dropped + p.data_dropped;
      Hist.absorb ~into:out.latency_hist p.latency_hist;
      Hist.absorb ~into:out.hops_hist p.hops_hist;
      Timeseries.merge_into ~into:out.injected_ts p.injected_ts;
      Timeseries.merge_into ~into:out.drops_ts p.drops_ts;
      Timeseries.merge_into ~into:out.replicas_ts p.replicas_ts;
      Timeseries.merge_into ~into:out.load_mean_ts p.load_mean_ts;
      Timeseries.merge_into ~into:out.load_max_ts p.load_max_ts)
    parts;
  if Stats.count latency > 0 then
    Hist.set_moments out.latency_hist ~sum:(Stats.total latency)
      ~vmin:(Stats.min_value latency) ~vmax:(Stats.max_value latency);
  if Stats.count hops > 0 then
    Hist.set_moments out.hops_hist ~sum:(Stats.total hops) ~vmin:(Stats.min_value hops)
      ~vmax:(Stats.max_value hops);
  out

let drop_fraction t =
  if t.injected = 0 then 0.0 else float_of_int (dropped_total t) /. float_of_int t.injected

let unresolved t = t.injected - t.resolved - dropped_total t

(* ---- the counter field-spec ----

   Single source of truth for every cumulative counter: (csv column,
   human label, getter).  The CSV exporter and the terminal summary both
   derive from these lists, so a counter added to the struct but not the
   spec shows up nowhere — and the spec-coverage test in test_obs pins
   the column count, so extending [t] forces extending this table. *)

let lifecycle_fields =
  [
    ("injected", "queries injected", fun m -> m.injected);
    ("resolved", "queries resolved", fun m -> m.resolved);
    ("dropped_queue", "dropped (queue full)", fun m -> m.dropped_queue);
    ("dropped_hops", "dropped (hop budget)", fun m -> m.dropped_hops);
    ("dropped_dead_end", "dropped (dead end)", fun m -> m.dropped_dead_end);
    ("dropped_server_dead", "dropped (server dead)", fun m -> m.dropped_server_dead);
  ]

let protocol_fields =
  [
    ("replicas_created", "replicas created", fun m -> m.replicas_created);
    ("replicas_evicted", "replicas evicted", fun m -> m.replicas_evicted);
    ("sessions_started", "replication sessions", fun m -> m.sessions_started);
    ("sessions_aborted", "sessions aborted", fun m -> m.sessions_aborted);
    ("control_messages", "control messages", fun m -> m.control_messages);
    ("query_forwards", "query forwards", fun m -> m.query_forwards);
    ("shortcut_forwards", "digest shortcuts", fun m -> m.shortcut_forwards);
    ("stale_forwards", "stale forwards", fun m -> m.stale_forwards);
  ]

let net_fields =
  [
    ("dropped_timeout", "dropped (timed out)", fun m -> m.dropped_timeout);
    ("net_lost", "messages lost (network)", fun m -> m.net_lost);
    ("net_blocked", "messages blocked (partition)", fun m -> m.net_blocked);
    ("query_retransmits", "query retransmits", fun m -> m.query_retransmits);
    ("fetch_retransmits", "fetch retransmits", fun m -> m.fetch_retransmits);
    ("late_replies", "late replies discarded", fun m -> m.late_replies);
  ]

let data_fields =
  [
    ("data_requests", "data fetches", fun m -> m.data_requests);
    ("data_completed", "data fetched", fun m -> m.data_completed);
    ("data_dropped", "data dropped", fun m -> m.data_dropped);
  ]

let counter_fields =
  List.map
    (fun (name, _, get) -> (name, get))
    (lifecycle_fields @ protocol_fields @ net_fields @ data_fields)

let csv_header = List.map fst counter_fields

let csv_row t = List.map (fun (_, get) -> string_of_int (get t)) counter_fields

let summary_rows t =
  let f = Printf.sprintf in
  let ints fields = List.map (fun (_, label, get) -> (label, f "%d" (get t))) fields in
  ints lifecycle_fields
  @ [
      ("drop fraction", f "%.4f" (drop_fraction t));
      ("mean latency (s)", f "%.4f" (Stats.mean t.latency));
      ("latency p50 (s)", f "%.4f" (Hist.percentile t.latency_hist 0.5));
      ("latency p95 (s)", f "%.4f" (Hist.percentile t.latency_hist 0.95));
      ("latency p99 (s)", f "%.4f" (Hist.percentile t.latency_hist 0.99));
      ("latency max (s)", f "%.4f" (Hist.max_value t.latency_hist));
      ("mean hops", f "%.2f" (Stats.mean t.hops));
      ("hops p99", f "%.0f" (Hist.percentile t.hops_hist 0.99));
    ]
  @ ints protocol_fields
  @ (if
       t.net_lost + t.net_blocked + t.query_retransmits + t.fetch_retransmits
       + t.dropped_timeout + t.late_replies
       = 0
     then []
     else ints net_fields)
  @
  if t.data_requests = 0 then []
  else ints data_fields @ [ ("mean fetch latency (s)", f "%.4f" (Stats.mean t.data_latency)) ]
