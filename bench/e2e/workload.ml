(* The benchmark workloads (why each was chosen: BENCHMARK.json and
   README.md).  All four are open loop in simulated time: Poisson arrivals
   at an analytic rate, on a balanced binary namespace with about 8 nodes
   per server, run flat out (no wall-clock pacing). *)

open Terradir
open Terradir_namespace
open Terradir_workload

type kind =
  | Uniform
  | Hotspot
  | Churn

type t = {
  name : string;
  kind : kind;
  domains : int;  (** engine domains the workload runs on *)
}

(* Every workload is measured on one engine domain.  Two domains would
   occupy every core of the 2-core box, so their wall time measured the
   host's scheduler more than the engine: the traced run's two-domain
   twin gives the [par] numbers instead, outside the gated metrics. *)
let uniform_10k = { name = "uniform_10k"; kind = Uniform; domains = 1 }

let hotspot_zipf_1k = { name = "hotspot_zipf_1k"; kind = Hotspot; domains = 1 }

let churn_fetch_1k = { name = "churn_fetch_1k"; kind = Churn; domains = 1 }

let all = [ uniform_10k; hotspot_zipf_1k; churn_fetch_1k ]

(* Engine domains of the traced run's twin. *)
let twin_domains = 2

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* [Full] is the benchmark; [Tiny] keeps the shape at a size the smoke
   test runs in seconds. *)
type size =
  | Full
  | Tiny

let size_of_string = function
  | "full" -> Some Full
  | "tiny" -> Some Tiny
  | _ -> None

let string_of_size = function Full -> "full" | Tiny -> "tiny"

let servers w size =
  match (w.kind, size) with
  | Uniform, Full -> 10_000
  | (Hotspot | Churn), Full -> 1024
  | _, Tiny -> 64

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let levels ~servers = max 3 (log2i (8 * servers))

let mean_depth tree =
  float_of_int (Tree.fold tree ~init:0 ~f:(fun acc v -> acc + Tree.depth tree v))
  /. float_of_int (Tree.size tree)

(* Target utilisation ρ = 0.5 from the ascend-plus-descend hop bound —
   the rate a calibration probe would estimate, without running one. *)
let analytic_rate ~servers tree =
  0.5 *. float_of_int servers
  /. (Config.default.Config.service_mean *. ((2.0 *. mean_depth tree) +. 1.0))

(* The seed of the system under test: node placement, server and network
   randomness, and the churn workload's kill picks.  It is fixed, so the
   benchmark's own seed varies the inputs (arrival times, destinations,
   fetch draws) and not the deployment they run against.  Drawing the
   deployment from the seed as well tripled the seed-to-seed spread of
   success_fraction on uniform_10k (1.4 % to 3-5 % on the 2-core dev box). *)
let deployment_seed = 42

let config w ~servers =
  let base =
    {
      Config.default with
      Config.num_servers = servers;
      engine_domains = w.domains;
      seed = deployment_seed;
    }
  in
  match w.kind with
  | Uniform ->
    (* Fig. 9 sizing: cache and map sizes grow with log2 of the cluster. *)
    let log2s = log2i servers in
    {
      base with
      Config.placement = Config.Round_robin;
      cache_slots = max 4 ((2 * log2s) - 2);
      r_map = max 2 (log2s - 2);
    }
  | Hotspot | Churn -> base

let drain = 2.0

(* About 73k lookups: short enough that two whole trajectories fit in a
   run of the benchmark. *)
let uniform_duration = function Full -> 9.0 | Tiny -> 3.0

let hotspot_phases ~rate = function
  | Full -> Stream.uzipf ~rate ~warmup:40.0 ~alpha:1.25 ~shift_every:30.0 ~shifts:5
  | Tiny -> Stream.uzipf ~rate ~warmup:4.0 ~alpha:1.25 ~shift_every:3.0 ~shifts:2

(* Data fetches ride a share of resolved lookups in the churn workload. *)
let fetch_probability = 0.3
