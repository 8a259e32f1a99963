(* Parallel-engine equivalence: the sharded conservative engine must be
   BYTE-IDENTICAL to the sequential one — same metrics, same CSVs, same
   flight-recorder stream — for every domain count K and every shard
   assignment.  The whole file runs under TERRADIR_AUDIT=1 (test/dune),
   so each run_until here also ends with a full invariant pass on the
   multi-domain engine.

   Local CI machines may expose a single core; OCaml domains still
   interleave correctly there, so these tests exercise the full
   synchronization protocol regardless of the host's parallelism. *)

open Terradir
open Terradir_namespace
open Terradir_workload

let mk_config ?(servers = 24) ~domains () =
  {
    Config.default with
    Config.num_servers = servers;
    engine_domains = domains;
    seed = 11;
  }

(* One standard workload: uniform stream with two-step accesses, enough
   traffic for replication sessions, caching, and data fetches to all
   fire.  Returns the full metrics CSV — any trajectory difference is a
   byte diff here. *)
let run_workload ?shard_of ?(obs = Terradir_obs.Obs.null) ?(servers = 24)
    ?(mutate = fun _ -> ()) ~domains () =
  let config = mk_config ~servers ~domains () in
  let tree = Build.balanced ~arity:2 ~levels:6 in
  let cluster = Cluster.create ?shard_of ~obs ~config ~tree () in
  mutate cluster;
  Scenario.run cluster
    ~phases:(Stream.unif ~rate:150.0 ~duration:8.0)
    ~seed:3 ~fetch_probability:0.25;
  Cluster.run_until cluster (Cluster.now cluster +. 4.0);
  (cluster, Terradir_experiments.Csv_export.metrics_csv (Cluster.metrics cluster))

let csv_of ?shard_of ?obs ?servers ?mutate ~domains () =
  snd (run_workload ?shard_of ?obs ?servers ?mutate ~domains ())

let check_equal label a b =
  if not (String.equal a b) then begin
    let first_diff =
      let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
      let rec go i = function
        | x :: xs, y :: ys -> if String.equal x y then go (i + 1) (xs, ys) else (i, x, y)
        | x :: _, [] -> (i, x, "<missing>")
        | [], y :: _ -> (i, "<missing>", y)
        | [], [] -> (i, "", "")
      in
      go 1 (la, lb)
    in
    let line, x, y = first_diff in
    Alcotest.failf "%s: first difference at line %d:\n  a: %s\n  b: %s" label line x y
  end

let test_k_equivalence () =
  let k1 = csv_of ~domains:1 () in
  let k2 = csv_of ~domains:2 () in
  let k4 = csv_of ~domains:4 () in
  check_equal "K=1 vs K=2" k1 k2;
  check_equal "K=1 vs K=4" k1 k4

let test_k_equivalence_under_faults () =
  (* Jitter exercises the per-sender latency streams, loss + timers the
     retransmission machinery (issuer-owned timer events), all under a
     tightened lookahead (base - jitter). *)
  let faulty domains =
    let config =
      {
        (mk_config ~servers:16 ~domains ()) with
        Config.net_jitter = 0.01;
        net_loss = 0.02;
        rpc_timeout = 0.4;
        max_retries = 2;
      }
    in
    let tree = Build.balanced ~arity:2 ~levels:5 in
    let cluster = Cluster.create ~config ~tree () in
    Scenario.run cluster ~phases:(Stream.unif ~rate:120.0 ~duration:8.0) ~seed:5;
    Cluster.run_until cluster (Cluster.now cluster +. 6.0);
    Terradir_experiments.Csv_export.metrics_csv (Cluster.metrics cluster)
  in
  check_equal "faulty K=1 vs K=3" (faulty 1) (faulty 3)

let test_k_equivalence_under_churn () =
  (* Kill and revive mid-stream: fail-stop, bounce-backs, and epoch
     cancellation are driver-side cross-shard writes — they must land at
     their canonical position in the global order. *)
  let churny domains =
    let mutate cluster =
      let engine = cluster.Cluster.engine in
      Terradir_sim.Engine.schedule_at engine 2.5 (fun () -> Cluster.kill cluster 3);
      Terradir_sim.Engine.schedule_at engine 5.0 (fun () -> Cluster.revive cluster 3)
    in
    csv_of ~servers:16 ~mutate ~domains ()
  in
  check_equal "churn K=1 vs K=2" (churny 1) (churny 2)

let test_obs_off_vs_full () =
  (* Recording is passive: enabling the flight recorder must not change
     the trajectory, on the parallel engine included. *)
  let with_obs level =
    let obs = Terradir_obs.Obs.create ~capacity:4096 ~level () in
    csv_of ~obs ~domains:2 ()
  in
  check_equal "K=2 obs Off vs Full" (csv_of ~domains:2 ()) (with_obs Terradir_obs.Obs.Full)

let test_recorder_stream_k_independent () =
  (* The merged per-lane flight-recorder ring must byte-match the
     sequential recorder: same events, same canonical order, same ring
     truncation.  (Probe sampling points differ between K=1 and K>=2 —
     cadence hooks fire at window barriers — but the event stream and the
     retained ring must not.) *)
  let events domains =
    let obs = Terradir_obs.Obs.create ~capacity:2048 ~level:Terradir_obs.Obs.Full () in
    let cluster, _ = run_workload ~obs ~domains () in
    ignore cluster;
    Terradir_obs.Export.events_csv (Terradir_obs.Obs.recorder obs)
  in
  let k1 = events 1 in
  let k2 = events 2 in
  let k4 = events 4 in
  check_equal "recorder K=1 vs K=2" k1 k2;
  check_equal "recorder K=2 vs K=4" k2 k4

let test_fallback_to_sequential () =
  let domains_of config =
    let tree = Build.balanced ~arity:2 ~levels:5 in
    let cluster = Cluster.create ~config ~tree () in
    Terradir_sim.Engine.domains cluster.Cluster.engine
  in
  (* oracle routing scans every server: no shard-local reads, no parallel mode *)
  Alcotest.(check int) "oracle_maps pins K=1" 1
    (domains_of { (mk_config ~servers:16 ~domains:4 ()) with Config.oracle_maps = true });
  (* a zero latency floor leaves no lookahead *)
  Alcotest.(check int) "zero network delay pins K=1" 1
    (domains_of { (mk_config ~servers:16 ~domains:4 ()) with Config.network_delay = 0.0 });
  (* more domains than servers is clamped, not an error *)
  let cluster =
    Cluster.create
      ~config:(mk_config ~servers:16 ~domains:64 ())
      ~tree:(Build.balanced ~arity:2 ~levels:5)
      ()
  in
  Alcotest.(check int) "domains clamped to num_servers" 16
    (Terradir_sim.Engine.domains cluster.Cluster.engine)

(* Solo events — driver (-1) and sync (-2) — must run at their canonical
   position in the global order, with every earlier event executed and no
   later one, whatever K.  A bare engine: 8 contexts step in lockstep at
   colliding timestamps, and some steps schedule a solo event one
   lookahead ahead, where it collides with the next step of every
   context and is ordered among them by its tie alone. *)
let test_solo_positions () =
  let module Engine = Terradir_sim.Engine in
  let lookahead = 0.025 and contexts = 8 in
  let logs domains =
    let e =
      Engine.create ~domains ~lookahead ~shard_of:(Array.init contexts (fun c -> c mod domains)) ()
    in
    let solo = ref [] in
    let per_ctx = Array.make contexts [] in
    let log_solo () = solo := (Engine.ctx e, Engine.now e, Engine.events_executed e) :: !solo in
    let rec chain c n () =
      per_ctx.(c) <- Engine.now e :: per_ctx.(c);
      if n > 0 then begin
        Engine.schedule ~owner:c e ~delay:lookahead (chain c (n - 1));
        if (n + c) mod 3 = 0 then Engine.schedule ~owner:(-1) e ~delay:lookahead log_solo;
        if (n + c) mod 4 = 0 then
          Engine.schedule ~owner:Engine.sync_ctx e ~delay:lookahead log_solo
      end
    in
    for c = 0 to contexts - 1 do
      Engine.schedule ~owner:c e ~delay:0.0 (chain c 12)
    done;
    Engine.run e;
    (List.rev !solo, Array.to_list (Array.map List.rev per_ctx))
  in
  let show (solo, per_ctx) =
    String.concat "\n"
      (List.map (fun (c, t, n) -> Printf.sprintf "solo ctx=%d t=%h n=%d" c t n) solo
      @ List.mapi
          (fun c ts ->
            Printf.sprintf "ctx %d: %s" c (String.concat " " (List.map (Printf.sprintf "%h") ts)))
          per_ctx)
  in
  let k1 = logs 1 in
  let solo, _ = k1 in
  Alcotest.(check bool) "driver and sync events ran" true
    (List.exists (fun (c, _, _) -> c = -1) solo && List.exists (fun (c, _, _) -> c = -2) solo);
  check_equal "solo positions K=1 vs K=2" (show k1) (show (logs 2));
  check_equal "solo positions K=1 vs K=4" (show k1) (show (logs 4))

(* Randomized shard assignments: the observable outputs are a function of
   the CONFIG only, never of how servers are distributed over lanes. *)
let prop_shard_assignment_irrelevant =
  QCheck.Test.make ~name:"par engine: outputs independent of shard assignment" ~count:4
    QCheck.(pair (int_bound 1_000_000) (int_range 2 4))
    (fun (salt, domains) ->
      let baseline = csv_of ~servers:16 ~domains:1 () in
      let shard_of sid = (((sid * 2654435761) lxor salt) land max_int) mod domains in
      let sharded = csv_of ~servers:16 ~shard_of ~domains () in
      String.equal baseline sharded)

let () =
  Alcotest.run "par_engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "metrics CSV byte-identical for K in {1,2,4}" `Slow
            test_k_equivalence;
          Alcotest.test_case "loss+jitter+timers equivalent across K" `Slow
            test_k_equivalence_under_faults;
          Alcotest.test_case "kill/revive equivalent across K" `Slow
            test_k_equivalence_under_churn;
          Alcotest.test_case "obs Off vs Full at K=2" `Slow test_obs_off_vs_full;
          Alcotest.test_case "flight-recorder stream K-independent" `Slow
            test_recorder_stream_k_independent;
          Alcotest.test_case "sequential fallbacks" `Quick test_fallback_to_sequential;
          Alcotest.test_case "solo events keep their positions for K in {1,2,4}" `Quick
            test_solo_positions;
          QCheck_alcotest.to_alcotest prop_shard_assignment_irrelevant;
        ] );
    ]
