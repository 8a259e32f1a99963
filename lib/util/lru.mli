(** Bounded LRU table from integer keys to values.

    The TerraDir cache (§2.4 of the paper) stores node → map pointers with
    LRU replacement; an entry is "touched" whenever used in routing.  The
    implementation is flat: the entries are an {!Intmap} (dense keys and
    values, its index, an optional int column), and the recency list is
    one [Bytes] block of slot links — two 2-byte cells per slot, circular
    through a sentinel.  All operations are O(1).  The arrays grow with
    the entries held, up to [capacity], so an idle table costs two small
    records and {!put}/{!find} allocate only while growing. *)

type 'a t

val max_capacity : int
(** 65,535: a link cell holds a position in 2 bytes. *)

val create : ?ints:bool -> capacity:int -> unit -> 'a t
(** [create ~capacity ()] holds at most [capacity] entries.  Capacity 0 is
    a valid always-empty cache.  [ints] (default [false]) adds an int per
    entry ({!int_at}), 0 when the entry is put, which moves with it.
    @raise Invalid_argument if negative or above {!max_capacity}. *)

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
    sweep of the dense key array, for scans whose result does not depend
    on visit order. *)

(** {2 Cursor}

    An MRU-first walk with no closure and no allocation, for hot paths that
    want only a recency prefix: [first t], then [next t slot] until [-1].
    A cursor is invalidated by any mutation of [t] ({!find} included). *)

val slot : 'a t -> int -> int
(** [slot t k] is [k]'s slot in [0 .. length t - 1], [-1] when absent; no
    promotion.  Slots are positions, as in {!Intmap}: a {!remove}, or the
    eviction a {!put} of a new key may make, moves the last slot's entry
    into the freed one.  A slot is good until the next {!put} of a new key,
    {!remove} or {!clear}; per-entry data belongs in the int column, which
    moves with its entry. *)

val index : 'a t -> Bytes.t
(** The key → slot index, for memory breakdowns ([prof_main.exe mem]). *)

val links : 'a t -> Bytes.t
(** The block of recency links, for memory breakdowns. *)

val first : 'a t -> int
(** The most recently used entry's slot; [-1] when empty. *)

val next : 'a t -> int -> int
(** The next less recently used slot after [slot]; [-1] past the end. *)

val key_at : 'a t -> int -> int

val value_at : 'a t -> int -> 'a

val int_at : 'a t -> int -> int
(** The int of the entry in a slot (a table made with [~ints:true]). *)

val set_int_at : 'a t -> int -> int -> unit

val iter : 'a t -> f:(int -> 'a -> unit) -> unit
(** MRU first.  Like every recency walk here ({!keys_mru_order}), it
    counts its steps.
    @raise Invalid_argument if it passes {!length} entries: the links
    loop. *)

val keys_mru_order : 'a t -> int list
(** Keys from most- to least-recently-used (for tests). *)

val clear : 'a t -> unit
(** Drop every entry and release the arrays, back to the created state. *)

val check : 'a t -> string option
(** {!Intmap.check}, then the recency walk: exactly {!length} distinct
    slots, every [prev]/[next] pair mutual. *)
