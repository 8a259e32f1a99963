(** Object free lists for pooled records.

    The steady-state event loop recycles message and query records through
    per-lane free lists instead of allocating fresh ones: a record is
    [put] back exactly once, at its lifecycle's terminal point, and the
    next [pop] hands it out for reuse.  A pool is single-owner mutable
    state — the sharded engine gives each lane its own pool, and records
    migrate between pools as they cross lanes (a record popped on one lane
    may be put back on another, but only ever by the lane that currently
    owns the record). *)

type 'a t

val create : unit -> 'a t
(** An empty pool.  No backing storage is allocated until the first
    {!put}. *)

val is_empty : 'a t -> bool

val put : 'a t -> 'a -> unit
(** Return a record to the pool.  The caller must not touch the record
    again until a {!pop} hands it back. *)

val pop : 'a t -> 'a
(** Most recently recycled record.  @raise Invalid_argument when empty —
    callers check {!is_empty} and construct a fresh record instead. *)
