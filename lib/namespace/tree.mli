(** Immutable tree namespaces over dense node identifiers.

    The routing protocol treats the namespace as shared global knowledge of
    {e structure} (names and parent/child relations), while knowledge of
    {e placement} (which servers host which nodes) is local and replicated.
    Routing reads only node ids and their preorder spans, so the hot path
    (distance computations, digest membership) is allocation-free.  Each
    node keeps its last path component; full names are rendered and parsed
    only where a person reads or types a path ({!name_string},
    {!find_string}).

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
      empty or contains ['/'], or a child with that component already
      exists. *)

  val size : t -> int

  val freeze : t -> tree
  (** Seal the builder into an immutable tree.  The builder must not be used
      afterwards (enforced: subsequent operations raise). *)
end

val size : t -> int

val root : node

val name_string : t -> node -> string
(** The node's full path, ["/a/b"]; the root is ["/"].  Walks the parent
    chain, O(depth). *)

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
    Built on each call from the parent and {!children}: one fresh list of
    [1 + num_children] cells. *)

val find_string : t -> string -> node option
(** The node at path ["/a/b"]: walks its components down from the root,
    scanning each level's children; O(depth × fan-out), no table.  The
    leading slash is optional and repeated or trailing slashes are
    ignored, so [""] and ["/"] are the root. *)

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
    node's root path written out once: each distance is then a scan down
    the path's nested subtree spans to the lowest common ancestor, with no
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
(** Structural self-check (parent/child symmetry, depths, spans, and
    {!find_string} of every {!name_string} finding its node); raises
    [Failure] with a description when violated.  For tests. *)
