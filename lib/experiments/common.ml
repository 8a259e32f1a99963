open Terradir_namespace
open Terradir
open Terradir_workload

type namespace = NS | NC

let paper_servers = 4096

let paper_lambda_fig3 = 20000.0

let paper_lambda_fig4 = 40000.0

let zipf_orders = [ 0.75; 1.00; 1.25; 1.50 ]

let paper_nc_nodes = 40342

type setup = { config : Config.t; tree : Tree.t; rate : float -> float }

let mean_depth tree =
  let total = Tree.fold tree ~init:0 ~f:(fun acc v -> acc + Tree.depth tree v) in
  float_of_int total /. float_of_int (Tree.size tree)

let fig9_sizing c =
  let log2s = Build.log2i c.Config.num_servers in
  {
    c with
    Config.placement = Config.Round_robin;
    cache_slots = max 4 ((2 * log2s) - 2);
    r_map = max 2 (log2s - 2);
  }

(* Each resolved query occupies about [est_hops × service_mean] seconds
   of aggregate server time, with [est_hops] the ascend-plus-descend bound
   [2·mean_depth + 1]. *)
let analytic_rate ~rho config tree =
  let est_hops = (2.0 *. mean_depth tree) +. 1.0 in
  rho *. float_of_int config.Config.num_servers /. (config.Config.service_mean *. est_hops)

let servers_at ~scale = max 8 (int_of_float (Float.round (float_of_int paper_servers *. scale)))

(* The paper's λ values are utilization targets in disguise: on N_S,
   λ ∈ {2000..20000} spans ρ ≈ {0.08..0.8}; on N_C the paper doubles λ "to
   keep the system at approximately the same utilization".  So the
   conversion that preserves the results' driving quantity is
   ρ = λ/25000 (N_S) and λ/50000 (N_C). *)
let target_utilization ns paper_lambda =
  match ns with NS -> paper_lambda /. 25000.0 | NC -> paper_lambda /. 50000.0

(* Empirical λ→ρ calibration: run the canonical full system briefly at a
   low probe rate and measure busy time per unit of arrival rate.  Busy
   time is linear in λ below saturation, so the target utilization divides
   out.  The probe masks [features] (always BCR) and [oracle_maps] (always
   off), so systems that differ only there share one λ→ρ factor; every
   other field of [config], [config_tweak]'s included, reaches the probe. *)
let probe_view config =
  (* The probe is tiny and runs while the experiment suite may already be
     saturating the machine's domains — force the sequential engine. *)
  { config with Config.features = Config.bcr; oracle_maps = false; engine_domains = 1 }

let calibrate ~config ~tree ~seed =
  let probe_config = { (probe_view config) with Config.seed = seed + 9001 } in
  let cluster = Cluster.create ~config:probe_config ~tree () in
  let servers = float_of_int probe_config.Config.num_servers in
  (* aim near ρ ≈ 0.1 assuming ~5 hops/query *)
  let probe_rate = 0.1 *. servers /. (probe_config.Config.service_mean *. 5.0) in
  let total_busy time =
    Array.fold_left
      (fun acc s -> acc +. Load_meter.total_busy_time s.Server.load time)
      0.0 cluster.Cluster.servers
  in
  (* skip the cold first 4 s (empty caches inflate hop counts) *)
  let early = ref 0.0 in
  Terradir_sim.Engine.schedule_at cluster.Cluster.engine 4.0 (fun () ->
      early := total_busy 4.0);
  Terradir_workload.Scenario.run cluster
    ~phases:(Terradir_workload.Stream.unif ~rate:probe_rate ~duration:12.0)
    ~seed:(seed + 77) ~drain:0.0;
  let busy = total_busy (Cluster.now cluster) -. !early in
  let rho = busy /. (servers *. 8.0) in
  Float.max 1e-9 (rho /. probe_rate)

let make ?(scale = 1.0 /. 16.0) ?(seed = 42) ?(config_tweak = fun c -> c) ns =
  if scale <= 0.0 || scale > 1.0 then invalid_arg "Common.make: scale must be in (0, 1]";
  let servers = servers_at ~scale in
  let tree =
    match ns with
    | NS -> Build.balanced_for ~servers
    | NC ->
      let target = max 64 (paper_nc_nodes * servers / paper_servers) in
      Build.coda_like ~target ()
  in
  let config = config_tweak { Config.default with Config.num_servers = servers; seed } in
  let rho_per_lambda = calibrate ~config ~tree ~seed in
  let rate paper_lambda = target_utilization ns paper_lambda /. rho_per_lambda in
  { config; tree; rate }

let warmup_for alpha = 40.0 +. (Float.max 0.0 (alpha -. 0.75) /. 0.25 *. 10.0)

let shift_every = 45.0

let uzipf_stream setup ~paper_rate ~alpha ~duration =
  let warmup = warmup_for alpha in
  let remaining = duration -. warmup in
  if remaining <= 0.0 then invalid_arg "Common.uzipf_stream: duration shorter than warmup";
  let shifts = max 1 (int_of_float (Float.round (remaining /. shift_every))) in
  Stream.uzipf ~rate:(setup.rate paper_rate) ~warmup ~alpha
    ~shift_every:(remaining /. float_of_int shifts) ~shifts

let unif_stream setup ~paper_rate ~duration =
  Stream.unif ~rate:(setup.rate paper_rate) ~duration

let log10_or_zero x = if x <= 0.0 then 0.0 else log10 x
