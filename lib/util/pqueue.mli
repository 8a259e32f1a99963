(** Mutable min-priority queue on float keys (struct-of-arrays binary heap).

    The event queue of the discrete-event engine.  Entries are ordered by
    (key, seq): ties on the key are broken by the caller-supplied sequence
    number, so a caller that numbers entries in insertion order gets FIFO
    ties, which makes simulations deterministic even when many events share
    a timestamp.  Keys, sequence numbers, tags and values live in parallel
    arrays, so add and pop allocate nothing but the arrays' amortized
    growth: no record per entry and no boxed key (test_promotion pins a
    pop + add at 4096 entries at zero minor words). *)

type 'a t

val create : filler:'a -> 'a t
(** Empty queue.  [filler] fills every slot that holds no entry, so a
    popped value is not kept reachable from the queue's arrays. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add_tagged : 'a t -> key:float -> seq:int -> tag:int -> 'a -> unit
(** Insert [v] with priority [(key, seq)] and an opaque integer [tag]
    (readable via {!top_tag}; it never participates in the ordering).
    Callers keep sequence numbers unique per key. *)

val top_key : 'a t -> float
(** Smallest key without removal; undefined when the queue is empty (check
    [is_empty] first). *)

val top_seq : 'a t -> int
(** Sequence number of the minimum entry; undefined when empty. *)

val top_tag : 'a t -> int
(** Tag of the minimum entry; undefined when empty. *)

val pop_exn : 'a t -> 'a
(** Remove the minimum entry and return its value without boxing the key.
    @raise Invalid_argument when empty. *)
