(* End-to-end scale smoke: a 10 000-server deployment driven under the
   runtime invariant auditor (TERRADIR_AUDIT=1 — set for the whole suite
   by test/dune, so every [Cluster.run_until] here ends with a full audit
   pass that raises on any violated invariant).

   Beyond "it runs at scale without tripping an invariant", the test
   byte-compares the full metrics export with observability Off vs Full:
   recording must never perturb a run. *)

open Terradir
open Terradir_namespace
open Terradir_workload
open Terradir_experiments

let servers = 10_000

let seed = 42

let config = Common.fig9_sizing { Config.default with Config.num_servers = servers; seed }

(* Analytic rate at utilization 0.5, as in Experiments.Capacity; ~20k
   expected queries keep the smoke in test-suite time. *)
let run ?obs () =
  let tree = Build.balanced_for ~servers in
  let rate = Common.analytic_rate ~rho:0.5 config tree in
  let duration = 20_000.0 /. rate in
  let cluster = Cluster.create ?obs ~config ~tree () in
  Scenario.run cluster ~phases:(Stream.unif ~rate ~duration) ~seed:(seed + 1009);
  cluster

(* The complete counter/histogram export — any divergence in any counter,
   latency bucket, or hop bucket shows up as a byte diff. *)
let fingerprint cluster = Csv_export.metrics_csv (Cluster.metrics cluster)

let check_sane label cluster =
  let m = Cluster.metrics cluster in
  if m.Metrics.injected < 10_000 then
    Alcotest.failf "%s: only %d queries injected" label m.Metrics.injected;
  if m.Metrics.resolved = 0 then Alcotest.failf "%s: nothing resolved" label;
  if Cluster.alive_servers cluster <> servers then
    Alcotest.failf "%s: expected %d alive servers" label servers

let test_obs_off_vs_full () =
  let off = run () in
  check_sane "obs off" off;
  let full =
    let obs = Terradir_obs.Obs.create ~probe_every:2000 ~level:Terradir_obs.Obs.Full () in
    run ~obs ()
  in
  Alcotest.(check string) "Off and Full runs are byte-identical" (fingerprint off)
    (fingerprint full);
  if Terradir_obs.Recorder.total (Terradir_obs.Obs.recorder full.Cluster.obs) = 0 then
    Alcotest.fail "Full-level sink recorded nothing"

let () =
  Runner.set_jobs (Some 1);
  Alcotest.run "scale_smoke"
    [
      ( "10k-servers",
        [
          Alcotest.test_case "audited run: obs Off vs Full byte-identical" `Slow
            test_obs_off_vs_full;
        ] );
    ]
