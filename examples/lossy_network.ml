(* Fault injection at the network layer: loss, jitter, timeouts and a
   mid-run partition.

   The transport under the cluster is a [Terradir_sim.Net]: every message
   samples its latency from a distribution, may be lost iid, and is
   silently swallowed while a partition covers its (src, dst) pair; the
   cluster's metrics count each lost and blocked message.  The
   issuer-side request timers ([rpc_timeout] > 0) are what turn silent
   loss into bounded retransmission instead of lost queries.

   Timeline:
     0–20 s   lossy steady state: 2% loss, ±30% jitter, retries enabled
     t=20 s   partition: servers 0–7 cut off from the other 24
     20–35 s  queries crossing the cut vanish; timers fire, retries burn,
              some requests time out
     t=35 s   heal; the backlog of retrying requests completes
     35–60 s  recovered lossy steady state.  Note drops are recorded when
              the *last* timer expires (~13 s after injection with these
              knobs), so partition-era failures surface post-heal.

   Run with: dune exec examples/lossy_network.exe *)

open Terradir_util
open Terradir_namespace
open Terradir_sim
open Terradir
open Terradir_workload

let () =
  let tree = Build.balanced ~arity:2 ~levels:8 in
  let config =
    {
      Config.default with
      Config.num_servers = 32;
      seed = 11;
      net_loss = 0.02;
      net_jitter = 0.3 *. Config.default.Config.network_delay;
      rpc_timeout = 1.0;
      max_retries = 4;
      retry_backoff = 1.5;
    }
  in
  let cluster = Cluster.create ~config ~tree () in
  let side_a = List.init 8 Fun.id in
  let side_b = List.init 24 (fun i -> i + 8) in
  let pid = ref None in
  Engine.schedule_at cluster.Cluster.engine 20.0 (fun () ->
      pid := Some (Net.partition cluster.Cluster.net ~a:side_a ~b:side_b);
      Printf.printf "t=20: partition installed (8 | 24 servers)\n");
  Engine.schedule_at cluster.Cluster.engine 35.0 (fun () ->
      Option.iter (Net.heal cluster.Cluster.net) !pid;
      Printf.printf "t=35: partition healed\n");

  Scenario.run cluster
    ~phases:[ { Stream.duration = 60.0; rate = 150.0; dist = Stream.Uniform } ]
    ~seed:7;

  let m = Cluster.metrics cluster in
  let injected_ts = Timeseries.sums m.Metrics.injected_ts in
  let drops_ts = Timeseries.sums m.Metrics.drops_ts in
  print_endline "\nphase                      injected/s  drops/s";
  let window label a b =
    let slice arr =
      let hi = min b (Array.length arr) in
      let acc = ref 0.0 in
      for i = a to hi - 1 do
        acc := !acc +. arr.(i)
      done;
      !acc /. float_of_int (max 1 (hi - a))
    in
    Printf.printf "%-26s %9.0f %9.1f\n" label (slice injected_ts) (slice drops_ts)
  in
  window "lossy (0-20s)" 0 20;
  window "partitioned (20-35s)" 20 35;
  window "healed, draining (35-60s)" 35 60;

  Printf.printf "\nnetwork: %d messages lost, %d blocked by the partition\n" m.Metrics.net_lost
    m.Metrics.net_blocked;
  Printf.printf
    "recovery: %d query + %d fetch retransmits, %d late replies discarded, %d timed out\n"
    m.Metrics.query_retransmits m.Metrics.fetch_retransmits m.Metrics.late_replies
    m.Metrics.dropped_timeout;
  Printf.printf "totals: injected=%d resolved=%d dropped=%d (%.2f%%)\n\n" m.Metrics.injected
    m.Metrics.resolved (Metrics.dropped_total m)
    (100.0 *. Metrics.drop_fraction m);
  print_string (Terradir_experiments.Csv_export.metrics_csv m);
  Cluster.check_invariants cluster
