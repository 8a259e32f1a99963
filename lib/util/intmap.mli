(** Int-keyed table sized by what it holds.

    Keys and values sit in dense arrays — [add] appends, [remove]
    swap-removes the last entry into the hole — so a sweep over the
    entries is a sequential walk of [0 .. length t - 1].  An
    open-addressing {!Index} of 2-byte cells (4-byte past 2^16 positions)
    finds a key's slot.  Every array starts empty and doubles on demand
    (up to the growth cap, if one is set); a table emptied by {!remove}
    or {!clear} returns to its created state.

    A table may also keep an int column and a float column: one more int
    or unboxed float per slot, beside the value, which grows with the keys
    and moves with its entry in a swap-remove.  A record per entry would
    cost a header and a pointer per entry; a column costs one word.

    Slots are positions, not handles: a removal moves the last entry into
    the freed slot.  Iteration order is slot order, which depends on the
    history of adds and removes — callers whose result must not depend on
    it either sort or fold commutatively. *)

type 'a t

val create : ?ints:bool -> ?floats:bool -> ?cap:int -> unit -> 'a t
(** An empty table: one small record, no arrays.  [ints] and [floats]
    (default [false]) add the int and the float column.  [cap] bounds
    growth: while a table holds at most [cap] entries, no array is longer
    than [cap] (a 24-entry table stops at 24 slots, not 32).  It does not
    bound the table, which grows past it by doubling.  Default: no cap.
    @raise Invalid_argument if [cap] is negative or above [max_int lsr 2]. *)

val length : 'a t -> int

val slot : 'a t -> int -> int
(** [slot t k] is [k]'s slot in [0 .. length t - 1], or [-1] when absent. *)

val mem : 'a t -> int -> bool

val key_at : 'a t -> int -> int
(** The key in slot [i] ([0 <= i < length t]). *)

val value_at : 'a t -> int -> 'a

val set_at : 'a t -> int -> 'a -> unit
(** Rebind the value in slot [i]. *)

val add_at : float t -> int -> float -> unit
(** [add_at t i d] adds [d] to the value in slot [i], in place and without
    allocating. *)

val int_at : 'a t -> int -> int
(** The int column's cell in slot [i] (a table made with [~ints:true]). *)

val set_int_at : 'a t -> int -> int -> unit

val floats : 'a t -> floatarray
(** The float column of a [~floats:true] table, indexed by slot: read and
    write it with [Float.Array.get]/[set], which stay unboxed where a
    float-returning accessor would box.  Like a slot, it is good until the
    next {!add}, {!replace} of a new key or {!remove}. *)

val add : 'a t -> int -> 'a -> unit
(** Bind a key that is not yet bound, in slot [length t], with its column
    cells at 0.  One walk of the key's probe path both rejects a bound key
    and finds the cell the index fills.
    @raise Invalid_argument if [k] is bound. *)

val replace : 'a t -> int -> 'a -> unit
(** Rebind [k] in place, or {!add} it. *)

val remove : 'a t -> int -> unit
(** Unbind [k] (no-op when absent); the last slot's entry moves into [k]'s
    slot. *)

val clear : 'a t -> unit
(** Drop every entry and release the arrays: back to the created state. *)

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

val check : 'a t -> string option
(** The index's first broken property, or [None]: entries fill at most
    half the positions, exactly {!length} cells are non-empty and each
    names a slot below it, and every dense key's probe reaches its slot. *)

(** The open-addressing index from key to slot: a [Bytes] block of cells,
    [0] or [slot + 1], 2 bytes up to 2^16 positions and 4 beyond, at most
    half full.  Probing is linear from {!Index.hash}; a removal shifts the
    rest of the probe run back (no tombstones).  Lookups allocate nothing. *)
module Index : sig
  val hash : int -> int
  (** The non-negative scramble of a key that probing starts from (keys
      are dense ids, which the raw low bits would cluster); {!Packed_table}
      probes from it too. *)
end

val index : 'a t -> Bytes.t
(** The table's index cells, for memory breakdowns ([prof_main.exe mem]). *)

val columns : 'a t -> int array * floatarray
(** The int and the float column, for memory breakdowns. *)
