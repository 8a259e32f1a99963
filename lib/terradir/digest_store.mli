(** Inverse-mapping digest management (§3.6).

    Each server maintains (a) the Bloom digest of the node names {e it}
    hosts, rebuilt (with a bumped version) whenever its hosted set changes,
    and (b) a bounded LRU collection of other servers' digests learned from
    piggybacked traffic.  Remote digests answer "does server [s] host node
    [v]?" with one-sided error, enabling shortcut discovery (§3.6.1) and map
    pruning (§3.6.2). *)

type t

val create : max_remote:int -> unit -> t

val local_version : t -> int
(** Starts at 0 with an empty digest; bumped by every {!rebuild_local}. *)

val local : t -> Terradir_bloom.Bloom.t
(** The local digest; the first read after a rebuild builds it. *)

val shared_local : t -> Terradir_bloom.Bloom.t option
(** [Some (local t)], the same block for every call until the filter is
    rebuilt: the piggyback a send carries, so carrying the digest
    allocates nothing. *)

val rebuild_local : t -> hosted:int list -> unit
(** Recompute the local digest over the hosted node ids. *)

val rebuild_local_from : t -> count:int -> iter:((int -> unit) -> unit) -> unit
(** {!rebuild_local} without materializing the hosted list: [iter] must
    produce exactly the hosted node ids ([count] of them — the filter is
    sized by it).  Order-independent, so a hash-table iteration is fine.
    The version is bumped at once; the filter is built by the next
    {!local} read, by calling [iter] then — so [iter] must still produce
    the same ids by that time, unless another rebuild replaces it first. *)

val record_remote : t -> server:int -> version:int -> Terradir_bloom.Bloom.t -> unit
(** Keep the digest if its version is newer than what is stored. *)

val remote_version : t -> server:int -> int option

val test_remote : t -> server:int -> node:int -> bool option
(** [Some answer] from server [server]'s stored digest; [None] when no
    digest for that server is held. *)

val collect_mru :
  t -> skip:int -> servers:int array -> blooms:Terradir_bloom.Bloom.t array -> int
(** Copy the most recently used held digests, MRU first and leaving out
    server [skip], into [servers]/[blooms] (as many as [servers] holds);
    returns how many were copied.  Walks only that prefix of the store and
    allocates nothing: the routing shortcut does this on every decision,
    and walking the whole store there dominated large deployments' event
    cost. *)

val remote_count : t -> int

val held_local : t -> Terradir_bloom.Bloom.t
(** The local filter as held now, without building a pending one: until
    the next {!local} read after a rebuild, the previous filter.  For
    memory breakdowns ([prof_main.exe mem]). *)

val remotes : t -> Terradir_bloom.Bloom.t Terradir_util.Lru.t
(** The remote digests by server, for memory breakdowns. *)

val last_version_sent : t -> peer:int -> int
(** Highest local version already piggybacked to [peer] (0 if never). *)

val note_version_sent : t -> peer:int -> int -> unit
