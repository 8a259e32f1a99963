open Terradir_namespace
open Terradir
open Terradir_workload

type spec = {
  workload : Stream.phase list;
  workload_seed : int;
  timeline : Timeline.t;
  window : float;
  slo : Report.slo;
  drain : float;
  config_tweak : Config.t -> Config.t;
}

type t = {
  name : string;
  title : string;
  spec : servers:int -> rate:float -> seed:int -> spec;
}

(* Every canned campaign arms the retransmission machinery: without rpc
   timers, queries stranded behind a partition never produce an outcome,
   so availability would not dip — it would silently leak into the
   unresolved count and the fault window would look perfect. *)
let resilient_config c =
  { c with Config.rpc_timeout = 0.5; max_retries = 3; retry_backoff = 2.0 }

(* The fields every canned campaign shares: a uniform base stream of
   [duration] seconds, 2 s report windows and drain, the default SLO and
   the retransmission machinery armed. *)
let campaign ~name ~title ~duration ~workload_seed timeline =
  {
    name;
    title;
    spec =
      (fun ~servers ~rate ~seed ->
        {
          workload = Stream.unif ~rate ~duration;
          workload_seed;
          timeline = Timeline.make (timeline ~servers ~rate ~seed);
          window = 2.0;
          slo = Report.default_slo;
          drain = 2.0;
          config_tweak = resilient_config;
        });
  }

(* An eighth of the servers (a "rack", at least one) cut off from the
   rest, symmetrically. *)
let cut_rack ~servers =
  let rack_size = max 1 (servers / 8) in
  Action.Partition
    {
      tag = "rack";
      a = List.init rack_size Fun.id;
      b = List.init (servers - rack_size) (fun i -> i + rack_size);
      directed = false;
    }

(* Planned maintenance: a rolling restart of a server subset — graceful
   leave (owned nodes handed off), a repair pause, revive.  Queries must
   ride the handoffs; availability should barely move. *)
let rolling_restart =
  campaign ~name:"rolling-restart" ~title:"rolling restart: staggered graceful leaves and revives"
    ~duration:60.0 ~workload_seed:1000 (fun ~servers ~rate:_ ~seed:_ ->
      let nrest = max 2 (servers / 32) in
      let victim k = (k + 1) * servers / (nrest + 1) in
      List.concat
        (List.init nrest (fun k ->
             let t0 = 16.0 +. (3.0 *. float_of_int k) in
             [
               (t0, Action.Graceful_leave [ victim k ]); (t0 +. 6.0, Action.Revive [ victim k ]);
             ])))

(* Correlated failure: a rack cut off from the rest, then healed.
   Availability dips while queries that must cross the cut time out;
   reconvergence starts at the heal. *)
let rack_partition =
  campaign ~name:"rack-partition" ~title:"correlated rack partition and heal" ~duration:60.0
    ~workload_seed:2000 (fun ~servers ~rate:_ ~seed:_ ->
      [ (20.0, cut_rack ~servers); (38.0, Action.Heal "rack") ])

(* The compound stress of §4: a partition is live when a flash crowd
   lands on a hot subtree — replication must shed the surge while the
   cut steals capacity.  The acceptance scenario. *)
let partition_flash_crowd =
  campaign ~name:"partition-flash-crowd" ~title:"flash crowd during an active partition"
    ~duration:62.0 ~workload_seed:3000 (fun ~servers ~rate ~seed:_ ->
      [
        (18.0, cut_rack ~servers);
        ( 22.0,
          Action.Flash_crowd
            {
              phases =
                [
                  {
                    Stream.duration = 12.0;
                    rate;
                    dist = Stream.Zipf { alpha = 1.25; reshuffle = false };
                  };
                ];
              seed = 3001;
            } );
        (40.0, Action.Heal "rack");
      ])

(* Escalating churn: background loss, then two deterministic
   kill-fraction waves, then mass revival and a clean network — the
   survival-under-churn sweep from the replication literature. *)
let churn_ramp =
  campaign ~name:"churn-ramp" ~title:"churn ramp: loss + kill-fraction waves, then mass revival"
    ~duration:64.0 ~workload_seed:4000 (fun ~servers:_ ~rate:_ ~seed ->
      [
        (10.0, Action.Set_loss 0.02);
        (18.0, Action.Kill_fraction { fraction = 0.08; salt = seed });
        (26.0, Action.Kill_fraction { fraction = 0.08; salt = seed + 1 });
        (42.0, Action.Revive_killed);
        (46.0, Action.Set_loss 0.0);
      ])

let all = [ rolling_restart; rack_partition; partition_flash_crowd; churn_ramp ]

let find name = List.find_opt (fun c -> String.equal c.name name) all

let run_campaign ?(on_cluster = ignore) ?obs ?(config = Config.default) campaign ~servers ~rate ~seed =
  if servers < 2 then invalid_arg "Campaigns.run_campaign: need at least 2 servers";
  if rate <= 0.0 then invalid_arg "Campaigns.run_campaign: rate must be positive";
  let spec = campaign.spec ~servers ~rate ~seed in
  let tree = Build.balanced_for ~servers in
  let config = spec.config_tweak { config with Config.num_servers = servers; seed } in
  let cluster = Cluster.create ?obs ~config ~tree () in
  let report =
    Chaos.run ~drain:spec.drain ~window:spec.window ~slo:spec.slo ~scenario:campaign.name ~seed
      cluster ~workload:spec.workload ~workload_seed:spec.workload_seed ~timeline:spec.timeline ()
  in
  on_cluster cluster;
  report
