(** Figure 9: scalability.  System size doubles step by step; nodes per
    server stay constant (~8, balanced binary namespace), λ grows
    proportionally, cache slots grow logarithmically (2·log2 S − 2) and
    r_map grows logarithmically.

    Reported per size: average query latency (hops and seconds — the paper
    plots a logarithmically growing latency), log10 of replication events,
    and log10 of dropped queries (both roughly linear in system size,
    hence straight lines on the log scale). *)

type row = {
  servers : int;
  nodes : int;
  mean_hops : float;
  mean_latency : float;
  replications : int;
  drops : int;
  resolved : int;
}

type result = { rows : row list }

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result

val tables : result -> Terradir_util.Tablefmt.table list
(** [fig9_scalability]: one row per size, with the log10 columns the
    paper plots appended. *)
