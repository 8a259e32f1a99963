(** Figure 7: how the system reacts to hierarchical bottlenecks — the
    average number of replicas created per node at each namespace level
    (root = level 0), for uniform and Zipf streams at three arrival rates.

    Paper shape: the top levels replicate heavily; level 2 often exceeds
    its ancestors (pointers to level-2 nodes linger in caches, diverting
    traffic from levels 0–1); replication fades toward the leaves. *)

open Terradir
open Terradir_util

type series = { label : string; per_level : float array }

type result = { runs : series list }

let paper_rates = [ 2000.0; 4000.0; 8000.0 ]

let run ?scale ?(duration = 150.0) ?(seed = 42) () =
  (* One pool cell per (stream kind, rate); setups are built inside the
     cell so no state crosses domains. *)
  let specs =
    List.concat_map (fun rate -> [ (`Unif, rate); (`Uzipf, rate) ]) paper_rates
  in
  let runs =
    Runner.map
      (fun (kind, paper_rate) ->
        let setup = Common.make ?scale ~seed Common.NS in
        let label, phases =
          match kind with
          | `Unif ->
            ( Printf.sprintf "unif l=%.0f" paper_rate,
              Common.unif_stream setup ~paper_rate ~duration )
          | `Uzipf ->
            ( Printf.sprintf "uzipf l=%.0f" paper_rate,
              Common.uzipf_stream setup ~paper_rate ~alpha:1.00 ~duration )
        in
        let cluster = Runner.run_phases setup phases in
        { label; per_level = Cluster.replicas_per_level cluster `Created })
      specs
  in
  { runs }

let tables r =
  [
    Tablefmt.of_series ~name:"fig7_replicas_per_level" ~index_label:"level"
      (List.map (fun s -> (s.label, s.per_level)) r.runs);
  ]
