(** Canned chaos campaigns: named, parameterized fault scenarios ready to
    run from the CLI ([terradir_sim chaos]) or the experiment suite.

    Every campaign arms the rpc-timeout machinery in its config tweak —
    without timers, queries stranded behind a fault never produce an
    outcome and the availability dip the campaign exists to measure would
    hide in the unresolved count. *)

type spec = {
  workload : Terradir_workload.Stream.phase list;  (** the base query stream *)
  workload_seed : int;
  timeline : Timeline.t;
  window : float;  (** report window width, seconds *)
  slo : Report.slo;
  drain : float;
  config_tweak : Terradir.Config.t -> Terradir.Config.t;
      (** applied after servers/seed are set; arms timeouts, may raise
          [net_jitter] budgets, etc. *)
}

type t = {
  name : string;  (** CLI identifier, e.g. "rack-partition" *)
  title : string;
  spec : servers:int -> rate:float -> seed:int -> spec;
}

val churn_ramp : t
(** Background loss plus two seeded kill-fraction waves, then mass
    revival and a clean network. *)

val all : t list

val find : string -> t option

val run_campaign :
  ?obs:Terradir_obs.Obs.t ->
  ?config:Terradir.Config.t ->
  t ->
  servers:int ->
  rate:float ->
  seed:int ->
  Report.t
(** Build a balanced namespace (~8 nodes per server, the experiment
    suite's shape), a cluster from [config] (default [Config.default])
    with [servers]/[seed] applied and the campaign's tweak on top, and
    run the campaign's spec at the given query [rate].
    @raise Invalid_argument when [servers < 2] or [rate <= 0]. *)
