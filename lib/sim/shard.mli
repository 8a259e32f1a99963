(** One shard lane of the discrete-event engine.

    A lane is an event queue ({!Terradir_util.Pqueue}) plus the mutable
    execution context of the event it is currently running (clock, owner,
    tie-break, intra-event counter).  The engine partitions servers across
    lanes; during a synchronized window each lane is driven by exactly one
    domain, so the fields need no atomicity — the window barrier publishes
    them.

    The representation is abstract: lane state is single-writer by
    protocol (exactly one domain drives a lane inside a window), so every
    mutation must go through this interface where the race check can see
    it.  In particular the per-destination outboxes — the only sanctioned
    path for cross-lane event transfer — are reachable only via
    {!outbox_push} and {!drain_outboxes}, never as a raw array a caller
    could mutate outside the barrier protocol.

    Queue entries store the canonical total-order key (timestamp, tie) in
    the (key, seq) slots and the event's owner context in the tag slot:
    the parallel engine's pop order over the union of all lanes is then
    exactly the sequential engine's pop order over one queue. *)

type t

val create : idx:int -> ndest:int -> t

val idx : t -> int
(** Lane index: [0..K-1] shards; [K] = the coordinator lane. *)

val clock : t -> float
(** Time of the event being / last executed on this lane. *)

val set_clock : t -> float -> unit
(** Force the lane clock (end-of-run [until] alignment); must only be
    called between windows, by the coordinating domain. *)

val ctx : t -> int
(** Owner of the running event; [-1] when idle. *)

val tie : t -> int
(** Tie-break of the running event (obs stamping); [0] when idle. *)

val next_sub : t -> int
(** Return the running event's intra-event emission counter and advance
    it (obs stamping). *)

val executed : t -> int
(** Events executed on this lane since creation. *)

val length : t -> int

val is_empty : t -> bool

val top_key : t -> float
(** Undefined when empty (as are {!top_tie} and {!top_tag}). *)

val top_tie : t -> int

val top_tag : t -> int

val enqueue : t -> key:float -> tie:int -> tag:int -> (unit -> unit) -> unit

val outbox_push : t -> dest:int -> time:float -> tie:int -> owner:int -> (unit -> unit) -> unit
(** Park a cross-lane deposit for destination lane [dest] until the
    barrier.  Only the domain driving this lane may call it, and only
    while a window is open. *)

val drain_outboxes :
  t ->
  f:(dest:int -> time:float -> tie:int -> owner:int -> (unit -> unit) -> unit) ->
  unit
(** Hand every parked deposit to [f], one call per item, and clear the
    boxes (thunk slots are scrubbed so the buffers retain nothing).
    Coordinator-only, at the barrier; deposit order is irrelevant because
    ties are globally unique. *)

val pop_run : t -> unit
(** Execute the minimum event: sets clock/ctx/tie, runs the thunk, and
    resets [ctx] to [-1].  The lane must be non-empty. *)

val run_below : t -> time:float -> tie:int -> unit
(** Pop-and-run while the lane minimum is strictly below the exclusive
    bound [(time, tie)]. *)
