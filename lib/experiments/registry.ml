type entry = {
  id : string;
  title : string;
  tables : ?scale:float -> ?duration:float -> ?seed:int -> unit -> Terradir_util.Tablefmt.table list;
}

let all =
  [
    {
      id = "table1";
      title = "Table 1: server-node relationships";
      tables = (fun ?scale ?duration:_ ?seed () -> Table1.tables (Table1.run ?scale ?seed ()));
    };
    {
      id = "fig3";
      title = "Fig 3: dropped queries over time (N_S)";
      tables = (fun ?scale ?duration ?seed () -> Fig3.tables (Fig3.run ?scale ?duration ?seed ()));
    };
    {
      id = "fig4";
      title = "Fig 4: replicas created over time (N_C)";
      tables = (fun ?scale ?duration ?seed () -> Fig4.tables (Fig4.run ?scale ?duration ?seed ()));
    };
    {
      id = "fig5";
      title = "Fig 5: drop fraction, B vs BC vs BCR";
      tables = (fun ?scale ?duration ?seed () -> Fig5.tables (Fig5.run ?scale ?duration ?seed ()));
    };
    {
      id = "fig6";
      title = "Fig 6: utilization and load balance";
      tables = (fun ?scale ?duration ?seed () -> Fig6.tables (Fig6.run ?scale ?duration ?seed ()));
    };
    {
      id = "fig7";
      title = "Fig 7: replicas per namespace level";
      tables = (fun ?scale ?duration ?seed () -> Fig7.tables (Fig7.run ?scale ?duration ?seed ()));
    };
    {
      id = "fig8";
      title = "Fig 8: stabilization over long runs";
      tables = (fun ?scale ?duration ?seed () -> Fig8.tables (Fig8.run ?scale ?duration ?seed ()));
    };
    {
      id = "fig9";
      title = "Fig 9: scalability with system size";
      tables = (fun ?scale ?duration ?seed () -> Fig9.tables (Fig9.run ?scale ?duration ?seed ()));
    };
    {
      id = "rfact";
      title = "par. 4.4 ablation: replication factor, digests, oracle";
      tables = (fun ?scale ?duration ?seed () -> Rfact.tables (Rfact.run ?scale ?duration ?seed ()));
    };
    {
      id = "ablations";
      title = "design-choice ablations: cache policy/size, r_map, static replication";
      tables =
        (fun ?scale ?duration ?seed () ->
          Ablations.tables (Ablations.run ?scale ?duration ?seed ()));
    };
    {
      id = "hetero";
      title = "par. 5 claim: exploiting server heterogeneity";
      tables =
        (fun ?scale ?duration ?seed () -> Hetero.tables (Hetero.run ?scale ?duration ?seed ()));
    };
    {
      id = "resilience";
      title = "resilience: chaos campaigns vs replication factor";
      tables =
        (fun ?scale ?duration:_ ?seed () -> Resilience.tables (Resilience.run ?scale ?seed ()));
    };
    {
      id = "capacity";
      title = "capacity: macro throughput at scale (analytic rate)";
      tables = (fun ?scale ?duration:_ ?seed () -> Capacity.tables (Capacity.run ?scale ?seed ()));
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all

let print e ?scale ?duration ?seed () =
  Printf.printf "===== %s — %s =====\n" e.id e.title;
  List.iter Terradir_util.Tablefmt.print_table (e.tables ?scale ?duration ?seed ())
