(** Experiment catalog, and the only list of experiments: one entry per
    table/figure of the paper (plus the ablations, resilience and capacity
    runs), each runnable at an arbitrary scale.  The CLI, its CSV export
    and the benchmark harness all go through it. *)

type entry = {
  id : string;  (** e.g. "fig3" *)
  title : string;
  tables : ?scale:float -> ?duration:float -> ?seed:int -> unit -> Terradir_util.Tablefmt.table list;
      (** Run the experiment and return its results as named tables —
          the one form both the terminal and [--csv] render.  [duration]
          is in simulated seconds; [table1] (no time axis), [resilience]
          (fixed-length campaign timelines) and [capacity] (sized in
          queries) ignore it. *)
}

val all : entry list

val find : string -> entry option

val ids : unit -> string list

val print : entry -> ?scale:float -> ?duration:float -> ?seed:int -> unit -> unit
(** A [===== id — title =====] line, then each of the entry's tables
    ({!Terradir_util.Tablefmt.print_table}) to stdout. *)
