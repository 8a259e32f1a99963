(** Resilience under canned chaos campaigns, across replication factors.

    The paper's figures measure steady-state load balance; this figure
    measures the {e recovery} story the abstract promises ("graceful
    performance degradation" under failure): for each canned chaos
    campaign and each [r_fact], the windowed availability floor during
    the fault era, the drop fraction, and the mean time to reconvergence
    after the recovery actions.  Higher replication budgets should buy a
    higher availability floor and a faster return to baseline. *)

open Terradir
open Terradir_util
module Chaos = Terradir_chaos

type row = {
  campaign : string;
  r_fact : float;
  baseline_availability : float;
  min_availability : float;
  drop_fraction : float;
  unresolved : int;
  recoveries : int;
  recovered : int;
  mean_ttr : float option;
}

type result = { rows : row list }

let r_facts = [ 0.5; 1.0; 2.0 ]

(* Roughly the calibrated mid-utilization point of the figure suite:
   a few queries per server-second keeps the baseline comfortably
   available while leaving headroom for the fault era to hurt. *)
let rate_per_server = 4.0

let run ?(scale = 1.0 /. 16.0) ?(seed = 42) () =
  if scale <= 0.0 || scale > 1.0 then invalid_arg "Resilience.run: scale must be in (0, 1]";
  let servers = max 8 (int_of_float (Float.round (float_of_int Common.paper_servers *. scale))) in
  let rate = rate_per_server *. float_of_int servers in
  let specs =
    List.concat_map
      (fun campaign -> List.map (fun r_fact -> (campaign, r_fact)) r_facts)
      Chaos.Campaigns.all
  in
  let rows =
    Runner.map
      (fun (campaign, r_fact) ->
        Runner.record_alloc @@ fun () ->
        let config = Runner.with_engine_config { Config.default with Config.r_fact } in
        let on_cluster = Runner.record_events in
        let report = Chaos.Campaigns.run_campaign ~on_cluster ~config campaign ~servers ~rate ~seed in
        let recovered =
          List.length
            (List.filter
               (fun r -> Option.is_some r.Chaos.Report.r_reconverged)
               report.Chaos.Report.recoveries)
        in
        let totals = report.Chaos.Report.totals in
        {
          campaign = campaign.Chaos.Campaigns.name;
          r_fact;
          baseline_availability =
            (match report.Chaos.Report.baseline with
            | Some b -> b.Chaos.Report.b_availability
            | None -> Float.nan);
          min_availability = Chaos.Report.min_fault_availability report;
          drop_fraction =
            (if totals.Chaos.Report.injected = 0 then 0.0
             else
               float_of_int totals.Chaos.Report.dropped_total
               /. float_of_int totals.Chaos.Report.injected);
          unresolved = totals.Chaos.Report.unresolved;
          recoveries = List.length report.Chaos.Report.recoveries;
          recovered;
          mean_ttr = Chaos.Report.mean_time_to_reconvergence report;
        })
      specs
  in
  { rows }

let tables r =
  let f = Printf.sprintf in
  [
    {
      Tablefmt.name = "resilience";
      header =
        [
          "campaign"; "r_fact"; "baseline_availability"; "min_availability"; "drop_fraction";
          "unresolved"; "recovered"; "recoveries"; "mean_ttr_s";
        ];
      rows =
        List.map
          (fun row ->
            [
              row.campaign;
              f "%.2f" row.r_fact;
              f "%.6f" row.baseline_availability;
              f "%.6f" row.min_availability;
              f "%.6f" row.drop_fraction;
              string_of_int row.unresolved;
              string_of_int row.recovered;
              string_of_int row.recoveries;
              (match row.mean_ttr with None -> "" | Some t -> f "%.6f" t);
            ])
          r.rows;
    };
  ]
