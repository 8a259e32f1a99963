(** Complex queries (§2.1): "Complex search queries are decomposed
    hierarchically into individual lookup queries, the appropriate nodes
    are resolved, and then the results are aggregated and sent back to the
    requester."

    This is a {e client} layer: it owns no server state and speaks to the
    system exclusively through {!Cluster.inject}'s completion callbacks —
    exactly how an application embeds TerraDir.  A subtree search
    enumerates the namespace below a root (structure is shared knowledge;
    {e placement} is what lookups discover), issues one lookup per node
    with light pacing, filters the resolutions, and aggregates. *)

open Types

type node_result = {
  sr_node : node_id;
  sr_map : Node_map.t;  (** where the node can be found / fetched from *)
  sr_meta_version : int;
  sr_hops : int;
}

type result = {
  root : node_id;
  matched : node_result list;  (** resolved nodes passing the filter *)
  lookups_issued : int;
  lookups_dropped : int;
  latency : float;  (** first injection to last completion *)
}

val subtree :
  ?max_nodes:int ->
  ?filter:(node_id -> bool) ->
  Cluster.t ->
  src:server_id ->
  root:node_id ->
  on_done:(result -> unit) ->
  unit
(** [subtree cluster ~src ~root ~on_done] resolves every node in [root]'s
    subtree (breadth-first, capped at [max_nodes], default 256) from
    client [src], keeping resolutions for which [filter] holds (default:
    all).  Lookups are injected 25 ms apart (above the mean service time)
    so a search does not trample the client's own request queue.  [on_done]
    fires once, after every lookup has terminated.
    @raise Invalid_argument on a bad root or non-positive [max_nodes]. *)

val glob :
  ?max_nodes:int ->
  Cluster.t ->
  src:server_id ->
  pattern:string ->
  on_done:(result -> unit) ->
  unit
(** Convenience: [pattern] is a path with a trailing ["/*"] (one level) or
    ["/**"] (whole subtree), e.g. ["/university/public/**"].  Resolves the
    matching namespace region.  @raise Invalid_argument if the prefix
    names no node or the pattern has no glob suffix. *)
