open Terradir_util
open Terradir_namespace

let apply (cluster : Cluster.t) ~levels ~copies =
  if levels < 0 then invalid_arg "Static_replication.apply: negative levels";
  if copies < 0 then invalid_arg "Static_replication.apply: negative copies";
  let tree = cluster.Cluster.tree in
  let servers = cluster.Cluster.servers in
  let n_servers = Array.length servers in
  let rng = cluster.Cluster.rng in
  let installed = ref 0 in
  Tree.iter tree (fun node ->
      if Tree.depth tree node < levels then begin
        let owner = servers.(cluster.Cluster.owner_of.(node)) in
        match Server.make_replica_payload owner node with
        | None -> ()
        | Some payload ->
          (* Draw target servers until [copies] succeed or attempts run
             out (bounded: budget-less servers would loop forever). *)
          let placed = ref 0 and attempts = ref 0 in
          while !placed < copies && !attempts < 8 * copies do
            incr attempts;
            let target = servers.(Splitmix.int rng n_servers) in
            if (not (Server.hosts target node)) && Server.replica_budget target > 0 then begin
              match Server.install_replica target payload ~now:0.0 with
              | `Installed ->
                incr placed;
                incr installed;
                Server.record_new_replica owner node target.Server.id ~now:0.0
              | `Merged | `Rejected -> ()
            end
          done
      end);
  !installed
