(** Plain-text and CSV rendering of experiment results.

    Every experiment reports its results as a list of named {!table}s;
    the terminal ({!print_table}) and the CSV export ({!csv}) render the
    same cells, so the two forms cannot drift apart. *)

type table = {
  name : string;  (** CSV file stem, e.g. ["fig3_drop_fraction"] *)
  header : string list;
  rows : string list list;
}

val of_series : name:string -> index_label:string -> (string * float array) list -> table
(** Named series as columns, one row per index: the index, then each
    column's value as [%.6f].  Columns may have different lengths; missing
    points are empty cells. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays out a boxed ASCII table.  Columns are sized to
    content; the first column is left-aligned and the rest right-aligned.
    Ragged rows are padded with empty cells. *)

val print : header:string list -> string list list -> unit
(** [render] to stdout. *)

val print_table : table -> unit
(** A [== name ==] line, then the table {!render}ed to stdout. *)

val csv : header:string list -> string list list -> string
(** The same data as comma-separated values (no quoting: cells must not
    contain commas or newlines — enforced with [Invalid_argument]). *)
