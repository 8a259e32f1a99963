(** Figure 5: total drop fraction per (stream × system) cell — B (base)
    vs BC (caching) vs BCR (caching + replication), over unif and uzipf
    streams on both namespaces. *)

type cell = { stream : string; system : string; drop_fraction : float }

type result = { cells : cell list }

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result

val print : result -> unit
