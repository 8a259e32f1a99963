(** Plot-ready CSV export (gnuplot/pandas friendly) of every experiment,
    and the counter snapshot tests and examples compare runs by. *)

val export :
  id:string -> ?scale:float -> ?duration:float -> ?seed:int -> dir:string -> unit -> string list
(** [export ~id ~dir ()] runs the {!Registry} entry [id] and writes each of
    its tables to [dir/<name>.csv] (the directory and its missing parents are created),
    returning the paths written.  The files hold exactly the cells the
    terminal prints for that entry; [duration] reaches the entry as
    {!Registry.entry} describes.
    @raise Invalid_argument on an unknown experiment id. *)

val metrics_csv : Terradir.Metrics.t -> string
(** Machine-readable metric/value rows: one row per
    {!Terradir.Metrics.counter_fields} entry (every cumulative counter,
    unconditionally, under its stable CSV name), then the
    histogram-derived latency and hop statistics as [latency_p50],
    [hops_p99], ….  Derived from the same field-spec list as the struct,
    so the export cannot drift from [Metrics.t]. *)
