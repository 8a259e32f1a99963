(** Resilience under canned chaos campaigns, across replication factors:
    availability floor during the fault era, drop fraction, and time to
    reconvergence, for each campaign in {!Terradir_chaos.Campaigns.all}
    at r_fact 0.5, 1 and 2. *)

type row = {
  campaign : string;
  r_fact : float;
  baseline_availability : float;  (** NaN when no pre-fault window exists *)
  min_availability : float;
  drop_fraction : float;
  unresolved : int;
  recoveries : int;
  recovered : int;  (** recoveries that reconverged within the run *)
  mean_ttr : float option;  (** mean time-to-reconvergence, seconds *)
}

type result = { rows : row list }

val run : ?scale:float -> ?seed:int -> unit -> result
(** One cell per (campaign, r_fact), fanned over {!Runner.map}. *)

val tables : result -> Terradir_util.Tablefmt.table list
(** [resilience]: one row per (campaign, r_fact) cell; no reconvergence
    leaves [mean_ttr_s] empty. *)
