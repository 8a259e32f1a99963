(* Deliberate unused-export findings, one val per case; racecheck's
   diagnostics on this tree are pinned byte-for-byte in ../expected.txt.
   The files are parsed by the export check, never compiled. *)

val via_alias : int -> int
(** Read by bin/ through [module W = Fixlib.Widget]. *)

val via_open : unit -> unit
(** Read by bin/ as a bare name under [open Fixlib.Widget]. *)

val own_only : int
(** Read only by widget.ml itself: unused-export. *)

val nowhere : int
(** Read by nothing: unused-export. *)

val tests_only : int -> bool
(** Read only by test/: test-only-export. *)

val shadowed : int
(** bin/ reads a [Widget.shadowed], but of its sibling module: unused-export. *)

module Sub : sig
  val sub_read : int
  (** Read by bin/ as [W.Sub.sub_read]. *)

  val sub_unused : int
  (** Read by nothing: unused-export. *)
end
