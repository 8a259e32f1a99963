(** Shared experiment machinery: the paper's §4.1 constants, namespace
    construction, and utilization-preserving downscaling.

    The paper's methodology (reconstructed where the OCR is damaged; see
    DESIGN.md): 4096 servers; exponential service, mean 20 ms; Poisson
    arrivals, λ from 4000 to 40000/s globally; request queue bound 12;
    constant 25 ms network time; namespace [N_S] a perfectly balanced
    binary tree of 32767 nodes (levels 0..14); namespace [N_C] a Coda-like
    file-system tree of ≈40342 nodes; Zipf orders 0.75/1.00/1.25/1.50.

    {b Scaling.}  Every experiment takes [~scale] (default 1/16).  Servers
    shrink by [scale]; namespaces shrink keeping nodes-per-server constant.
    Paper λ values convert via {!setup}'s [rate] by {e utilization
    calibration}: the paper's rates map linearly to server-utilization
    targets (λ=20000 on N_S ≈ ρ 0.8; the paper doubles λ on N_C "to keep
    approximately the same utilization"), and [rate] inverts a short probe
    measurement of busy-time-per-λ on the scaled system — so per-server
    utilization, the quantity that drives drops, replication and load
    balance, is preserved exactly rather than approximated. *)

type namespace = NS  (** balanced binary tree *) | NC  (** Coda-like file system *)

val paper_servers : int

val paper_lambda_fig3 : float
(** 20000 q/s on N_S. *)

val paper_lambda_fig4 : float
(** 40000 q/s on N_C (the paper doubles the rate to keep utilization). *)

val zipf_orders : float list
(** 0.75, 1.00, 1.25, 1.50. *)

type setup = {
  config : Terradir.Config.t;
  tree : Terradir_namespace.Tree.t;
  rate : float -> float;  (** paper-scale λ → this setup's λ *)
  scale : float;
}

val make :
  ?scale:float ->
  ?features:Terradir.Config.features ->
  ?seed:int ->
  ?config_tweak:(Terradir.Config.t -> Terradir.Config.t) ->
  namespace ->
  setup
(** Build a config + namespace at the given scale.  [config_tweak] runs last
    (after sizing), for per-experiment knob changes.
    @raise Invalid_argument if [scale] is outside (0, 1]. *)

val cluster : ?obs:Terradir_obs.Obs.t -> setup -> Terradir.Cluster.t
(** Fresh cluster for the setup; [obs] (default the null sink) is passed
    straight to {!Terradir.Cluster.create}. *)

val warmup_for : float -> float
(** Staggered uniform warmup before a Zipf stream, per order (§4.2: the
    unif component runs longer in 10 s increments): 40 s for 0.75 up to
    70 s for 1.50. *)

val uzipf_stream : setup -> paper_rate:float -> alpha:float -> duration:float -> Terradir_workload.Stream.phase list
(** Warmup + Zipf segments with instant re-rankings every 45 s, filling
    [duration] seconds. *)

val unif_stream : setup -> paper_rate:float -> duration:float -> Terradir_workload.Stream.phase list

val mean_depth : Terradir_namespace.Tree.t -> float

val log10_or_zero : float -> float
(** log10, with 0 mapped to 0 (for the paper's log-scale columns). *)
