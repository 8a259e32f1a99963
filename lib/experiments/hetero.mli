(** Heterogeneity experiment — §5's closing claim: "the most distinguishing
    feature of [deployed P2P] systems is their heterogeneity.  We believe
    that the adaptive nature of our replication model makes it a
    first-class candidate for exploiting system heterogeneity."

    Setup: same aggregate capacity, but per-server speeds drawn log-uniform
    over a spread of 1 (homogeneous), 4, or 16.  §3.1's load metric is a
    locally-defined busy fraction, so slow servers report high loads early
    and shed their hot nodes toward fast ones with no protocol change.
    Expectation: with adaptive replication (BCR) the drop fraction barely
    moves with the spread; caching alone (BC) degrades, since static
    placement strands hot nodes on slow servers. *)

type row = {
  spread : float;
  system : string;
  drop_fraction : float;
  mean_latency : float;
  mean_load_of_max : float;  (** time-average of the per-second max load *)
}

type result = { rows : row list }

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result

val tables : result -> Terradir_util.Tablefmt.table list
(** [hetero]: one row per (spread, system) cell. *)
