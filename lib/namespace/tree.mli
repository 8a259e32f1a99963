(** Immutable tree namespaces over interned node identifiers.

    The routing protocol treats the namespace as shared global knowledge of
    {e structure} (names and parent/child relations), while knowledge of
    {e placement} (which servers host which nodes) is local and replicated.
    Interning every name to a dense integer id makes the hot routing path
    (distance computations, digest membership) allocation-free.

    Ids are dense: [0 .. size-1], with the root always id [0]. *)

type node = int
(** Node identifier. *)

type t

module Builder : sig
  type tree = t

  type t

  val create : unit -> t
  (** A builder holding just the root. *)

  val add_child : t -> node -> string -> node
  (** [add_child b parent component] appends a new child and returns its id.
      @raise Invalid_argument if [parent] is out of range, the component is
      invalid, or a child with that component already exists. *)

  val size : t -> int

  val freeze : t -> tree
  (** Seal the builder into an immutable tree.  The builder must not be used
      afterwards (enforced: subsequent operations raise). *)
end

val size : t -> int

val root : node

val name : t -> node -> Name.t
(** Full name of a node (reconstructed; O(depth)). *)

val name_string : t -> node -> string

val parent : t -> node -> node option
(** [None] for the root. *)

val children : t -> node -> node array
(** Never mutate the returned array. *)

val num_children : t -> node -> int

val depth : t -> node -> int
(** Root has depth 0. *)

val max_depth : t -> int

val neighbors : t -> node -> node list
(** Parent (if any) followed by children — the node's routing context.
    Precomputed at freeze time: O(1), and callers on hot paths may rely on
    repeated calls returning the same (immutable) list without allocating. *)

val find : t -> Name.t -> node option
(** Name lookup; O(depth) hash probes. *)

val find_string : t -> string -> node option

val lca : t -> node -> node -> node
(** Walks the shallower node's parent chain, testing each step in O(1)
    against the other node's preorder rank. *)

val is_ancestor : t -> node -> node -> bool
(** [is_ancestor t a b]: is [a] on the path from the root to [b] (inclusive)?
    O(1): [b]'s preorder rank lies within [a]'s subtree span, both recorded
    at {!Builder.freeze}. *)

val ancestor_at_depth : t -> node -> int -> node
(** [ancestor_at_depth t v d] is the ancestor of [v] at depth [d].
    @raise Invalid_argument if [d] exceeds [depth t v] or is negative. *)

val distance : t -> node -> node -> int
(** Namespace metric: [depth a + depth b - 2*depth (lca a b)].  This is the
    hop count of the straightforward hierarchical route. *)

(** {2 Anchored distances}

    Many distances to one fixed node — a routing decision scores every
    known node against the same destination — are cheaper against that
    node's root path written out once: each distance is then a binary
    search over the path's nested subtree spans, O(log depth) with no
    parent-chain walk.  An anchor is caller-owned scratch (single-owner:
    share one per domain, never across domains). *)

type anchor

val anchor : unit -> anchor
(** A fresh anchor, set to nothing. *)

val anchor_at : t -> anchor -> node -> unit
(** [anchor_at t a dst] writes [dst]'s root path into [a] (a no-op when [a]
    already holds [dst] of this very tree). *)

val anchored_distance : t -> anchor -> node -> int
(** [anchored_distance t a v = distance t v dst] for the [dst] of the last
    {!anchor_at} on [t].
    @raise Invalid_argument if [a] was last anchored in another tree. *)

val anchored_ancestor : t -> anchor -> int -> node
(** [anchored_ancestor t a d = ancestor_at_depth t dst d], in O(1). *)

val level_sizes : t -> int array
(** [level_sizes t].(d) = number of nodes at depth [d]. *)

val iter : t -> (node -> unit) -> unit

val fold : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val leaves : t -> node list

val check_invariants : t -> unit
(** Structural self-check (parent/child symmetry, depths, id density);
    raises [Failure] with a description when violated.  For tests. *)
