(** Int-keyed table of small payloads, one packed int per entry.

    An entry is [(key + 1) lsl 39 lor payload] in an open-addressing
    array ([0] for an empty slot) kept at most 3/4 full, probed and
    shifted back on removal by {!Intmap}'s rule (no tombstones).  A
    table made with [~floats:true] also keeps one float per slot, unboxed
    in a [floatarray] beside the entries, which moves with its entry.

    Slots are positions, not handles: an {!add} may grow the table and a
    {!remove} may shift entries, so a slot is good until the next of
    either.  The array starts empty and doubles on demand. *)

type t

val key_bits : int
(** 24: keys lie in [0 .. 2{^ key_bits} − 2] ([key + 1] must fit). *)

val payload_bits : int
(** 39: payloads lie in [0 .. 2{^ payload_bits} − 1]. *)

val create : ?floats:bool -> unit -> t
(** An empty table; [floats] (default [false]) adds the float column. *)

val length : t -> int

val capacity : t -> int
(** Slots, occupied or not: a sweep visits [0 .. capacity t − 1] and skips
    the slots whose {!key_at} is [-1]. *)

val find : t -> int -> int
(** [find t k] is [k]'s slot, or [-1] when absent. *)

val add : t -> int -> int -> int
(** [add t k p] binds the absent key [k] to payload [p] and returns its
    slot.
    @raise Invalid_argument if [k] is bound, or [k] or [p] is out of
    range. *)

val remove : t -> int -> unit
(** Unbind [k] (no-op when absent). *)

val clear : t -> unit
(** Back to the created state. *)

val key_at : t -> int -> int
(** The key in slot [i], or [-1] for an empty slot. *)

val payload_at : t -> int -> int
(** The payload in the occupied slot [i]. *)

val set_payload_at : t -> int -> int -> unit
(** @raise Invalid_argument if the payload is out of range. *)

val floats : t -> floatarray
(** The float column of a [~floats:true] table, indexed by slot: read and
    write it with [Float.Array.get]/[set], which stay unboxed where a
    float-returning accessor would box.  Like a slot, it is good until the
    next {!add}, {!remove} or {!clear}. *)
