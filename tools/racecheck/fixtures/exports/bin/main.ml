module W = Fixlib.Widget

let () =
  print_int (W.via_alias W.Sub.sub_read);
  Gadget.run ()

let quiet () =
  let open Fixlib.Widget in
  via_open ()
