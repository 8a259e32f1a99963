(* A sibling module: [Widget] below names bin/widget.ml, not the export. *)
let run () = print_int Widget.shadowed
