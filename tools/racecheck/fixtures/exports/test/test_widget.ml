open Fixlib

let () = assert (Widget.tests_only 1)
