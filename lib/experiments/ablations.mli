(** Ablations of the design choices the paper asserts but does not plot.

    - {b Cache policy} (§2.4): "This mixture of close and far nodes
      [path propagation] performs significantly better than caching the
      query endpoints."
    - {b Cache size}: caches add O(log-ish) state per server and claim
      large latency wins even without locality.
    - {b Map size} (§3.7): maps are bounded at r_map entries "for
      scalability reasons" — how much accuracy does a tiny map cost?
    - {b Static vs. adaptive replication} (§2.3): "hierarchical bottlenecks
      can be addressed by static replication mechanisms, [but hot-spots
      and failures] call for an adaptive scheme." *)

type row = { dimension : string; variant : string; metrics : (string * float) list }

type result = { rows : row list }

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result

val tables : result -> Terradir_util.Tablefmt.table list
(** [ablations]: one row per variant; a metric a variant lacks is an
    empty cell. *)
