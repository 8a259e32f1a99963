(** Resilience under canned chaos campaigns, across replication factors:
    availability floor during the fault era, drop fraction, and time to
    reconvergence, for each campaign in {!Terradir_chaos.Campaigns.all}
    at each [r_fact] in {!r_facts}. *)

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

val r_facts : float list

val run : ?scale:float -> ?duration:float -> ?seed:int -> unit -> result
(** One cell per (campaign, r_fact), fanned over {!Runner.map}.
    [duration] is accepted for registry uniformity and ignored — campaign
    timelines are fixed-length. *)

val print : result -> unit
