(** Figure 5: total drop fraction per (stream × system) cell — B (base)
    vs BC (caching) vs BCR (caching + replication), over unif and uzipf
    streams on both namespaces. *)

type cell = { stream : string; system : string; drop_fraction : float }

type result = { cells : cell list }

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result

val lookup : result -> stream:string -> system:string -> float
(** Drop fraction of one cell ([Float.nan] when absent). *)

val print : result -> unit
