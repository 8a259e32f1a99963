(** Int-keyed table sized by what it holds.

    Keys and values sit in dense arrays — [add] appends, [remove]
    swap-removes the last entry into the hole — so a sweep over the
    entries is a sequential walk of [0 .. length t - 1].  An
    open-addressing index of [slot + 1] finds a key's slot.  Every array
    starts empty and doubles on demand; a table emptied by {!remove}
    returns to its created state.

    Slots are positions, not handles: a removal moves the last entry into
    the freed slot.  Iteration order is slot order, which depends on the
    history of adds and removes — callers whose result must not depend on
    it either sort or fold commutatively. *)

type 'a t

val create : unit -> 'a t
(** An empty table: two small records, no arrays. *)

val length : 'a t -> int

val slot : 'a t -> int -> int
(** [slot t k] is [k]'s slot in [0 .. length t - 1], or [-1] when absent. *)

val mem : 'a t -> int -> bool

val find_opt : 'a t -> int -> 'a option

val key_at : 'a t -> int -> int
(** The key in slot [i] ([0 <= i < length t]). *)

val value_at : 'a t -> int -> 'a

val set_at : 'a t -> int -> 'a -> unit
(** Rebind the value in slot [i]. *)

val add_at : float t -> int -> float -> unit
(** [add_at t i d] adds [d] to the value in slot [i], in place and without
    allocating. *)

val add : 'a t -> int -> 'a -> unit
(** Bind a key that is not yet bound, in slot [length t].
    @raise Invalid_argument if [k] is bound. *)

val replace : 'a t -> int -> 'a -> unit
(** Rebind [k] in place, or {!add} it. *)

val remove : 'a t -> int -> unit
(** Unbind [k] (no-op when absent); the last slot's entry moves into [k]'s
    slot. *)

val remove_at : 'a t -> int -> unit
(** {!remove} of the key in slot [i].  Only slots [>= i] change, so a walk
    from the last slot down to 0 may remove as it goes. *)

val iter : 'a t -> f:(int -> 'a -> unit) -> unit
(** In slot order; [f] must not add or remove. *)

val fold : 'a t -> init:'b -> f:('b -> int -> 'a -> 'b) -> 'b
(** In slot order; [f] must not add or remove. *)

val set_key_unchecked : 'a t -> int -> int -> unit
(** Overwrite slot [i]'s key without touching the index — only for tests
    that inject a violation the auditor must catch. *)

(** The open-addressing index on its own, for tables that keep keys in
    slots of their own ({!Lru}).  It maps a key to a slot via the owner's
    per-slot key array: each probe position holds [slot + 1], [0] for
    empty, [-1] for a tombstone.  Sizes are powers of two; the owner keeps
    live entries at most half the size (see {!Index.grown}) and rebuilds
    when {!Index.crowded} says tombstones have piled up. *)
module Index : sig
  type t

  val create : unit -> t
  (** Size 0: {!find} answers [-1] and no insertion is possible. *)

  val size : t -> int

  val find : t -> int array -> int -> int
  (** [find ix keys k]: the slot whose key ([keys.(slot)]) is [k], or [-1]. *)

  val insert : t -> int -> int -> unit
  (** [insert ix k slot]; [k] must be absent and the index must have room. *)

  val remove : t -> int -> int -> unit
  (** [remove ix k slot] tombstones the entry for [k], which is in [slot]. *)

  val grown : t -> live:int -> int
  (** The size that holds [live] entries at most half full: the current
      size (at least 8), doubled as often as needed. *)

  val crowded : t -> bool
  (** Tombstones fill more than a quarter of the index. *)

  val reset : t -> int -> unit
  (** Empty the index at the given size (0 or a power of two); the owner
      then re-inserts its live entries. *)
end
