(** Node maps: bounded server lists resolving a node name to hosts (§3.7).

    A map is "possibly incomplete and inaccurate": it never claims to list
    every host and entries can be stale.  Policies implemented here, per the
    paper:

    - {b size}: at most [max] entries, both at rest and on the wire;
    - {b owner pinning}: an entry flagged as the owner survives every merge
      and truncation (ownership is the one durable fact about a node);
    - {b recency preference}: the newest non-owner entries are kept first
      (owners advertise their most recently created replicas);
    - {b random fill}: remaining slots are chosen at random from what is
      left, so different servers end up with decorrelated maps.

    Maps are immutable values; all operations return new maps.  A map is
    one flat block (a packed server/owner row and an unboxed stamp per
    entry): operations assemble intermediate states in a per-domain
    workspace, so hot-path callers allocate only the result map. *)

type entry = { server : int; is_owner : bool; stamp : float }
(** [stamp] is the simulation time this entry was (last) created/refreshed. *)

type t

type scratch
(** A merge workspace of the caller's own.  {!merge} uses the calling
    domain's when none is passed; an explicit one is single-owner mutable
    state, never shared across domains. *)

val scratch : unit -> scratch

val empty : t

val singleton : ?is_owner:bool -> server:int -> stamp:float -> unit -> t

val of_entries : max:int -> entry list -> t
(** Dedup by server (newest stamp wins, owner flag is sticky) and truncate
    under the policy above (deterministically — random fill only applies to
    {!merge}). *)

val truncate : max:int -> t -> t
(** First [max] entries under the policy order; the map itself (no copy)
    when it already fits. *)

val entries : t -> entry list
(** Owner entries first, then newest-first. *)

val servers : t -> int list

val size : t -> int

val is_empty : t -> bool

val mem : t -> int -> bool
(** Membership of a server. *)

val owner : t -> int option
(** The owner entry's server, if the map knows it. *)

val add : max:int -> t -> entry -> t
(** Insert/refresh one entry, truncating to [max] under the policy. *)

val add_pinned : max:int -> t -> entry -> t
(** [add], but the added server's entry is guaranteed to survive the
    truncation: if it would fall past the cut, the lowest-priority kept
    non-owner entry is evicted in its favor.  Owners are never displaced —
    in the degenerate case where owner entries alone fill the map, the
    result equals [add]'s.  Used for a host's self entry, which the map it
    advertises must contain (the PR-3-documented truncation subtlety). *)

val remove : t -> int -> t
(** Drop a server's entry (e.g. learned stale). *)

val merge : ?scratch:scratch -> max:int -> Terradir_util.Splitmix.t -> t -> t -> t
(** Merge two maps for the same node: owners kept, then the newest entries,
    then random fill from the remainder (§3.7 "map merging").  Call twice
    with different [rng] draws to produce the kept-vs-propagated variants.
    RNG consumption is representation-independent: one draw per randomly
    filled slot, over the remainder in policy order.  [scratch] defaults to
    the calling domain's workspace. *)

val filter : t -> f:(int -> bool) -> t
(** Keep entries whose {e server id} satisfies [f]; owner entries are
    exempt (map filtering is conservative and must never orphan a node).
    Returns the input map itself when nothing is pruned. *)

val random_server : ?exclude:int -> t -> Terradir_util.Splitmix.t -> int option
(** Uniform choice among entries (minus [exclude]) — replica selection. *)

val pp : Format.formatter -> t -> unit
