(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists the same names and units; the smoke test fails when they
   disagree. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("queries_per_sec", "1/s");
    ("peak_rss_mb", "MB");
    ("success_fraction", "ratio");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
  ]

let per_layer =
  [
    ("setup.tree_build_s", "s");
    ("setup.cluster_create_s", "s");
    ("engine.events", "count");
    ("engine.events_per_query", "ratio");
    ("engine.events_per_sec", "1/s");
    ("engine.pending_p50", "count");
    ("engine.pending_max", "count");
    ("engine.hold_ns", "ns");
    ("engine.chunk_us_p50", "us");
    ("engine.chunk_us_p99", "us");
    ("par.cpu_per_wall", "ratio");
    ("par.speedup", "ratio");
    ("routing.forwards_per_query", "ratio");
    ("routing.shortcut_share", "ratio");
    ("routing.stale_share", "ratio");
    ("routing.decide_ns", "ns");
    ("node_map.merge_ns", "ns");
    ("cache.hit_rate", "ratio");
    ("replication.sessions", "count");
    ("replication.abort_ratio", "ratio");
    ("replication.replicas_created", "count");
    ("replication.replicas_evicted", "count");
    ("replication.replicas_live", "count");
    ("replication.ctrl_per_query", "ratio");
    ("net.lost", "count");
    ("net.blocked", "count");
    ("rpc.retransmits_per_query", "ratio");
    ("rpc.late_reply_ratio", "ratio");
    ("fetch.requests", "count");
    ("fetch.failed_ratio", "ratio");
    ("fetch.latency_mean_ms", "ms");
    ("gc.minor_words_per_event", "words");
    ("gc.promoted_words_per_event", "words");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("mem.bytes_per_server", "B");
    ("trace.overhead", "ratio");
  ]

(* Correctness checks; a run that cannot pass one exits non-zero. *)
let checks = [ "conservation"; "invariants"; "determinism"; "k_invariance"; "trace_neutrality" ]
