(** §4.4 ablation (summarized in the paper without a figure): low
    replication factors under repeatedly shifting high-order hot-spots
    (uzipf1.50), with inverse-mapping digests, without them, and against
    the oracle (routing with perfectly accurate host maps).

    Low r_fact + shifting hot-spots force constant replica churn, which is
    exactly when stale maps hurt; the paper's claim is that digests keep
    routing accuracy "within the optimal range".  Accuracy here is
    1 − stale-forward fraction (a stale forward is an arrival at a server
    that no longer hosts the forwarding target — zero by construction
    under the oracle). *)

type mode = Oracle | Digests | No_digests

type row = {
  r_fact : float;
  mode : mode;
  drop_fraction : float;
  replicas_created : int;
  replicas_evicted : int;
  accuracy : float;
  shortcut_share : float;
}

type result = { rows : row list }

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result

val tables : result -> Terradir_util.Tablefmt.table list
(** [rfact_ablation]: one row per (r_fact, maps) cell. *)
