(** Flight recorder: a pre-allocated ring buffer of stamped events.

    Recording overwrites the oldest entry once [capacity] events have been
    stored — the recorder always retains the {e newest} [capacity] events,
    in recording order (qcheck-enforced in [test_obs]).  Storage is five
    parallel arrays allocated at creation; [record] never grows anything.
    Every entry carries the engine's canonical stamp, so the per-lane
    recorders of a K >= 2 run merge into the K = 1 ring ({!merged}).

    A recorder with [capacity = 0] ignores every [record] — that is the
    disabled sink's backing store. *)

type entry = { time : float; server : int; event : Event.t }
(** [time] is simulation time; [server] the id of the server the event
    happened on (the issuer for injection/retransmit events, [-1] where no
    server is meaningful). *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 0]. *)

val record : t -> time:float -> tie:int -> sub:int -> server:int -> Event.t -> unit
(** Record with the engine's canonical stamp: [(time, tie, sub)] is
    globally unique and independent of the shard count, making per-lane
    recorders mergeable via {!merged}. *)

val merged : t list -> capacity:int -> t
(** Merge per-lane recorders into the ring one recorder of [capacity]
    would hold after the same run: entries sorted by stamp, truncated to
    the newest [capacity]; [total] is the sum over lanes. *)

val capacity : t -> int

val total : t -> int
(** Events ever recorded, including those overwritten. *)

val retained : t -> int
(** Events currently held: [min (total t) (capacity t)]. *)

val iter : t -> (entry -> unit) -> unit
(** Oldest retained entry first. *)

val to_list : t -> entry list
(** Chronological (oldest retained first). *)
