(** Plain-text table and series rendering for experiment reports.

    Every experiment harness prints the rows/series the paper reports through
    this module, so all output is uniform and greppable. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays out a boxed ASCII table.  Columns are sized to
    content; the first column is left-aligned and the rest right-aligned.
    Ragged rows are padded with empty cells. *)

val print : header:string list -> string list list -> unit
(** [render] to stdout. *)

val float_cell : ?decimals:int -> float -> string
(** Fixed-point formatting, default 4 decimals; NaN prints as ["-"]. *)

val series :
  title:string -> time_label:string -> columns:(string * float array) list -> unit
(** Print aligned per-bin series (one row per bin index) — the harness's
    rendition of the paper's line plots.  Columns may have different lengths;
    missing points print as ["-"]. *)

val csv : header:string list -> string list list -> string
(** The same data as comma-separated values (no quoting: cells must not
    contain commas or newlines — enforced with [Invalid_argument]). *)
