(** Plot-ready CSV export for every experiment.

    Each experiment id writes one or more CSV files (gnuplot/pandas
    friendly) with exactly the series/rows its [print] function shows. *)

val export :
  id:string -> ?scale:float -> ?duration:float -> ?seed:int -> dir:string -> unit -> string list
(** [export ~id ~dir ()] runs the experiment and writes its CSVs under
    [dir] (created if missing); returns the paths written.  [duration]
    reaches every experiment whose [run] takes one; [resilience] and
    [capacity] ignore it, as their {!Registry} entries do.
    @raise Invalid_argument on an unknown experiment id. *)

val exportable : string list
(** Ids accepted by {!export}. *)

val series_csv : index_label:string -> (string * float array) list -> string
(** CSV-encode named time/level series as columns, one row per index —
    the encoding every per-second figure export uses (exposed so tests can
    byte-compare figure output against committed goldens). *)

val metrics_csv : Terradir.Metrics.t -> string
(** Machine-readable metric/value rows: one row per
    {!Terradir.Metrics.counter_fields} entry (every cumulative counter,
    unconditionally, under its stable CSV name), then the
    histogram-derived latency and hop statistics as [latency_p50],
    [hops_p99], ….  Derived from the same field-spec list as the struct,
    so the export cannot drift from [Metrics.t]. *)
