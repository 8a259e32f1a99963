(* Lint fixture: exercises every rule of the determinism lint, plus the
   suppression machinery.  This file only has to PARSE — no dune stanza
   covers this directory, so it is never compiled.  The expected
   diagnostics live in expected.txt next door; the runtest rule in
   ../dune diffs the lint's output against it, so the line numbers here
   are load-bearing. *)

let table : (string, int) Hashtbl.t = Hashtbl.create 16

(* --- one unsuppressed violation per rule --- *)

let keys () = Hashtbl.fold (fun k _ acc -> k :: acc) table []
let pairs () = Hashtbl.to_seq table
let visit f = Hashtbl.iter f table
let cpu () = Sys.time ()
let wall () = Unix.gettimeofday ()
let dice () = Random.int 6
let sorted l = List.sort compare l
let same_handler () = (fun x -> x + 1) = (fun y -> y + 1)
let blob x = Marshal.to_string x []

(* --- clean constructions the lint must NOT flag --- *)

let keys_sorted () =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])

let keys_piped () = Hashtbl.fold (fun k _ acc -> k :: acc) table [] |> List.sort String.compare
let drawn rng = Terradir_util.Splitmix.float rng 1.0
let int_sorted l = List.sort Int.compare l

(* --- suppression: justified annotation covers the next line --- *)

(* lint: ordered integer addition is commutative; order cannot reach the sum *)
let total () = Hashtbl.fold (fun _ v acc -> acc + v) table 0

(* --- suppression without a justification: finding survives, plus bad-annotation --- *)

(* lint: ordered *)
let keys_again () = Hashtbl.fold (fun k _ acc -> k :: acc) table []

(* --- stale suppression: nothing on this or the next line to cover --- *)

(* lint: wall-clock the timing code below was removed; annotation is stale *)
let nothing = 0

(* --- obs hook: unannotated record in protocol code, then a justified one --- *)

let hook obs qid = Obs.record obs ~server:0 (Event.Queue_enter { qid; attempt = 0 })

let hook_ok obs qid =
  (* lint: obs-in-hot-path spans-gated; fires once per enqueue *)
  Terradir_obs.Obs.record obs ~server:0 (Event.Queue_enter { qid; attempt = 0 })

(* --- boxed floats: mixed record, annotated cold field, all-float record --- *)

type meter = { mutable level : float; name : string }

type cold = {
  (* lint: boxed-float written once per run; never on the event path *)
  mutable limit : float;
  label : string;
}

type flat = { mutable lo : float; mutable hi : float }
