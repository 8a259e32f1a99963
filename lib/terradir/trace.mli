(** Route tracing — the paper's Fig. 1 ("Route for query
    /university/private") and Fig. 2 (digest shortcut) walk-throughs,
    reproducible against live cluster state.

    A trace replays the forwarding decisions a query would take {e right
    now}, without queueing or service delays: each step names the server,
    the node it acts on behalf of, the decision, and the namespace distance
    still to cover.  Useful for debugging, demos, and the [trace] CLI
    subcommand. *)

open Types

type hop =
  | Via_neighbor_or_cache  (** conventional minimizing step (§2.2) *)
  | Via_digest  (** shortcut discovered in a remote digest (§3.6.1) *)

type step = {
  at_server : server_id;
  hosted_here : node_id option;  (** the target node, when this server hosts it *)
  via_node : node_id;  (** node chosen to route through *)
  to_server : server_id;
  hop : hop;
  distance_left : int;  (** namespace distance from [via_node] to dst *)
}

type t = {
  src : server_id;
  dst : node_id;
  steps : step list;
  outcome : [ `Resolved of server_id | `Dead_end of server_id | `Diverged ];
      (** [`Diverged]: exceeded the namespace diameter without resolving
          (possible only under stale state) *)
}

val route : Cluster.t -> src:server_id -> dst:node_id -> t
(** Trace from [src]'s viewpoint to [dst].  Read-mostly: the only state
    touched is cache recency (exactly as a real query would touch it). *)

val to_string : Cluster.t -> t -> string
