(** Cluster-wide measurement: the quantities §4 reports.

    Counters are cumulative; time series are per-second (bin 1.0) unless
    noted.  Everything is plain observation — no protocol behavior depends
    on this module. *)

open Terradir_util

type t = {
  (* query lifecycle *)
  mutable injected : int;
  mutable resolved : int;
  mutable dropped_queue : int;
  mutable dropped_hops : int;
  mutable dropped_dead_end : int;
  mutable dropped_server_dead : int;
  mutable dropped_timeout : int;
      (** queries whose final attempt's timer expired (network faults) *)
  (* network faults and retransmission (Net layer) *)
  mutable net_lost : int;  (** messages silently lost by iid loss *)
  mutable net_blocked : int;  (** messages dropped by an active partition *)
  mutable query_retransmits : int;  (** lookup attempts beyond the original *)
  mutable fetch_retransmits : int;  (** data-fetch attempts beyond the original *)
  mutable late_replies : int;
      (** resolutions that arrived after their request was finalized
          (duplicate attempt won, or the request already timed out) *)
  (* replication protocol *)
  mutable replicas_created : int;
  mutable replicas_evicted : int;
  mutable control_messages : int;
  mutable sessions_started : int;
  mutable sessions_aborted : int;
  (* routing behavior *)
  mutable query_forwards : int;
  mutable shortcut_forwards : int;
  mutable stale_forwards : int;
  (* data retrieval (step two of lookup-then-retrieve) *)
  mutable data_requests : int;
  mutable data_completed : int;
  mutable data_dropped : int;
  (* distributions *)
  latency : Stats.t;  (** resolution latency, seconds *)
  latency_hist : Terradir_obs.Hist.t;
      (** log-bucketed latency distribution (p50/p95/p99/max readout);
          replaces the old reservoir-sampled percentile path — exact
          counts, no RNG *)
  hops : Stats.t;  (** network hops per resolved query *)
  hops_hist : Terradir_obs.Hist.t;
  data_latency : Stats.t;  (** fetch round-trip, seconds *)
  meta_lag : Stats.t;
      (** meta-data versions behind the owner at resolution — how stale the
          soft-state replicas' annotations run (§2.3's freshness caveat) *)
  (* per-second series *)
  injected_ts : Timeseries.t;
  drops_ts : Timeseries.t;
  replicas_ts : Timeseries.t;
  load_mean_ts : Timeseries.t;  (** mean server load sampled each second *)
  load_max_ts : Timeseries.t;  (** max server load sampled each second *)
}

val create : unit -> t
(** All counters zero, all series and distributions empty. *)

val dropped_total : t -> int

val drop : t -> Types.drop_reason -> now:float -> unit
(** Count one dropped query (all reasons feed [drops_ts]). *)

val resolve : t -> latency:float -> hops:int -> unit
(** Count one resolution and feed the histograms.  The Welford [Stats]
    for latency/hops are {e not} updated here — the cluster keeps those
    per-server (so they fold back in a shard-count-independent order)
    and reunites them with the counters via {!merged}. *)

val merged :
  parts:t list -> latency:Stats.t -> hops:Stats.t -> data_latency:Stats.t -> meta_lag:Stats.t -> t
(** Combine per-lane parts (plus the pre-folded distribution stats) into
    the metrics a one-domain run of the same schedule reports: counters
    and histogram bucket counts sum exactly; time series merge bin-wise;
    histogram float moments are re-derived from the matching [Stats]
    (which saw the identical value stream).  A single-lane run uses the
    same path with one part, so the result is byte-identical for every
    domain count. *)

val replica_created : t -> now:float -> unit

val drop_fraction : t -> float
(** Dropped / injected over the whole run (Fig. 5's metric). *)

val unresolved : t -> int
(** Queries injected but neither resolved nor counted as dropped — still
    in flight at observation time (or stranded awaiting an rpc timer that
    is disabled).  The chaos resilience report tracks this so a campaign
    can distinguish "failed fast" from "never answered". *)

val summary_rows : t -> (string * string) list
(** Human-readable key/value summary for reports.  Counter rows are
    generated from {!counter_fields}; derived rows (drop fraction, means,
    histogram percentiles) are interleaved, and the network-fault / data
    sections are omitted while inactive. *)

val counter_fields : (string * (t -> int)) list
(** The single source of truth for cumulative counters: (CSV column name,
    getter), one entry per mutable counter of [t], in export order.  Both
    {!summary_rows} and [Csv_export.metrics_csv] derive from this list. *)

val csv_header : string list
(** Column names of {!counter_fields}. *)

val csv_row : t -> string list
(** Counter values, aligned with {!csv_header}. *)
