(** Per-server node cache (§2.4).

    A cache entry is {e just a map} for a node: it lacks routing context and
    acts as a pointer in the namespace; a hit cannot resolve a query by
    itself.  Replacement is LRU, with an entry touched whenever it is used in
    routing.  Path propagation means inserts come in bursts (the whole query
    path so far); inserted maps are merged with any existing entry for the
    same node.

    The cache never holds an empty map: {!insert} ignores one and {!update}
    drops an entry it empties.  Routing's candidate scan relies on this
    (it reads only keys), and the auditor checks it. *)

type t

val create :
  ?obs:Terradir_obs.Obs.t ->
  ?owner:int ->
  slots:int ->
  r_map:int ->
  rng:Terradir_util.Splitmix.t ->
  unit ->
  t
(** [slots] may be 0 (caching disabled).  [obs] (default disabled)
    receives a [Cache_hit]/[Cache_miss] event per lookup at the [Full]
    level, attributed to server [owner]. *)

val lru : t -> Node_map.t Terradir_util.Lru.t
(** The table itself, for memory breakdowns ([prof_main.exe mem]). *)

val slots : t -> int

val length : t -> int

val insert : t -> node:int -> Node_map.t -> unit
(** Insert or merge-with-existing, becoming most-recently-used. *)

val use : t -> node:int -> Node_map.t option
(** Lookup {e and touch} — call when the entry is chosen for routing. *)

val peek : t -> node:int -> Node_map.t option
(** Lookup without touching — call when scanning candidates. *)

val update : t -> node:int -> f:(Node_map.t -> Node_map.t) -> unit
(** Map rewrite (e.g. pruning a stale server) that promotes the entry to
    most-recently-used; no-op when absent.  If [f] returns an empty map
    the entry is dropped. *)

val iter : t -> f:(int -> Node_map.t -> unit) -> unit
(** Iterate entries (MRU first) without touching them. *)

val keys_into : t -> int array -> int
(** Write every cached node into the array (length ≥ {!slots}), in no
    particular order, and return how many: an allocation-free sweep for
    scans whose result does not depend on visit order. *)

val put_unchecked : t -> node:int -> Node_map.t -> unit
(** Bind without {!insert}'s empty-map guard or merge — only for tests that
    inject a violation the auditor must catch. *)

val hits : t -> int

val misses : t -> int
(** {!use} and {!peek} count towards the hit/miss counters. *)

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before the first lookup. *)

val clear : t -> unit
