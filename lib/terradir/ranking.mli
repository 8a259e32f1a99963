(** Load-based node ranking (§3.2).

    Each server weights every node it hosts by the load incurred on its
    behalf: a counter incremented per query processed for the node, rescaled
    (halved) periodically so weights approximate {e recent} demand.  Ranking
    selects which nodes to replicate (highest weight) and which replicas to
    evict (lowest weight). *)

type t = private float Terradir_util.Intmap.t (** node → weight *)

val create : unit -> t

val touch : t -> int -> unit
(** Add one unit of demand to a node's weight. *)

val weight : t -> int -> float
(** 0 for never-touched nodes. *)

val seed : t -> int -> float -> unit
(** Initialize a node's weight (e.g. a freshly installed replica inherits a
    hint so it is not immediately evicted). *)

val decay : t -> unit
(** Halve all weights; entries decayed below 1/64 are dropped. *)

val remove : t -> int -> unit

val ranked_desc : t -> among:int list -> (int * float) list
(** The given nodes with weights, heaviest first (stable for equal weights:
    ascending node id). *)

val ranked_asc : t -> among:int list -> (int * float) list
(** Lightest first — eviction order. *)

val total_weight : t -> among:int list -> float
