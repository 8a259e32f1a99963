(** Bounded LRU table from integer keys to values.

    The TerraDir cache (§2.4 of the paper) stores node → map pointers with
    LRU replacement; an entry is "touched" whenever used in routing.  The
    implementation is flat: entries live in parallel arrays, an
    open-addressing int index ({!Intmap.Index}) maps a key to its slot,
    and the recency list is one [Bytes] block of slot links — per slot
    [prev + 1] and [next + 1], [0] for none, in 2-byte cells while the
    capacity is at most 65,535 and 4-byte cells beyond.  All operations
    are O(1).  The arrays grow with the entries held, up to [capacity], so
    an idle table costs a record and {!put}/{!find} allocate only while
    growing. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] holds at most [capacity] entries.  Capacity 0 is a
    valid always-empty cache. @raise Invalid_argument if negative. *)

val capacity : 'a t -> int

val length : 'a t -> int

val find : 'a t -> int -> 'a option
(** [find t k] returns the binding and promotes [k] to most-recently-used. *)

val peek : 'a t -> int -> 'a option
(** Like {!find} but without promoting. *)

val put : 'a t -> int -> 'a -> unit
(** [put t k v] binds [k] to [v] as most-recently-used, evicting the
    least-recently-used entry if the cache is full. *)

val remove : 'a t -> int -> unit

val keys_into : 'a t -> int array -> int
(** [keys_into t dst] writes every key into [dst] (length ≥ [length t]), in
    slot order — not recency order — and returns how many.  A sequential
    sweep of the key and link arrays, for scans whose result does not
    depend on visit order. *)

(** {2 Cursor}

    An MRU-first walk with no closure and no allocation, for hot paths that
    want only a recency prefix: [first t], then [next t slot] until [-1].
    A cursor is invalidated by any mutation of [t] ({!find} included). *)

val slot : 'a t -> int -> int
(** [slot t k] is [k]'s slot, [-1] when absent; no promotion.  A key keeps
    its slot until it is removed or evicted, so callers may index per-entry
    data of their own by slot. *)

val index : 'a t -> Intmap.Index.t
(** The key → slot index, for memory breakdowns ([prof_main.exe mem]). *)

val links : 'a t -> Bytes.t
(** The block of recency links, for memory breakdowns. *)

val first : 'a t -> int
(** The most recently used entry's slot; [-1] when empty. *)

val next : 'a t -> int -> int
(** The next less recently used slot after [slot]; [-1] past the end. *)

val key_at : 'a t -> int -> int

val value_at : 'a t -> int -> 'a

val iter : 'a t -> f:(int -> 'a -> unit) -> unit
(** MRU first.  Like every recency walk here ({!keys_mru_order}, the
    re-index a {!put} or {!remove} may run), it counts its steps.
    @raise Invalid_argument if it passes {!length} entries: the links
    loop. *)

val keys_mru_order : 'a t -> int list
(** Keys from most- to least-recently-used (for tests). *)

val clear : 'a t -> unit
(** Drop every entry and release the arrays, back to the created state. *)
