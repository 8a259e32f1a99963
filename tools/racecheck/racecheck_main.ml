(* CLI for the domain-safety race check and the unused-export check.

   Usage: racecheck_main [--allowlist FILE] [--summaries-out FILE] PATH...
          racecheck_main --unused-exports DIR [--tests DIR]... [--allowlist FILE] PATH...

   Every PATH is a .ml/.mli file or a directory walked recursively,
   skipping directories named fixtures below it; implementations are
   analysed, interfaces refine export and exposure facts.  Findings go
   to stdout, one per line, machine-readable:

     file:line:col: [rule-id] message

   --summaries-out dumps the per-function effect-summary table (plus the
   mutable-root and exposed-mutable-type inventories) as CSV, for
   debugging the analysis and for eyeballing what lane code touches.

   --unused-exports DIR runs the export check (exports.ml) instead: every
   val in an .mli under DIR must be read by an implementation under a
   PATH (DIR is always one) outside its own module; reads from the
   --tests directories alone make it a test-only export.

   Exit status: 0 clean, 1 findings, 2 usage error. *)

module Racecheck = Terradir_racecheck.Racecheck
module Exports = Terradir_racecheck.Exports

let usage =
  "usage: racecheck_main [--allowlist FILE] [--summaries-out FILE] PATH...\n\
  \       racecheck_main --unused-exports DIR [--tests DIR]... [--allowlist FILE] PATH..."

let () =
  let allowlist = ref None and summaries_out = ref None and exports = ref None in
  let tests = ref [] and paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--allowlist" :: file :: rest ->
      allowlist := Some file;
      parse rest
    | "--summaries-out" :: file :: rest ->
      summaries_out := Some file;
      parse rest
    | "--unused-exports" :: dir :: rest ->
      exports := Some dir;
      parse rest
    | "--tests" :: dir :: rest ->
      tests := dir :: !tests;
      parse rest
    | (("--allowlist" | "--summaries-out" | "--unused-exports" | "--tests") as opt) :: [] ->
      Printf.eprintf "racecheck: %s needs an argument\n" opt;
      exit 2
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      Printf.eprintf "racecheck: unknown option %s\n%s\n" arg usage;
      exit 2
    | path :: rest ->
      paths := path :: !paths;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !paths = [] && !exports = None then begin
    prerr_endline usage;
    exit 2
  end;
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        Printf.eprintf "racecheck: no such path %s\n" p;
        exit 2
      end)
    (Option.to_list !exports @ !tests @ !paths);
  let findings =
    match !exports with
    | Some lib ->
      Exports.run ?allowlist:!allowlist ~lib ~tests:(List.rev !tests) ~paths:(List.rev !paths) ()
    | None ->
      Racecheck.run ?allowlist:!allowlist ?summaries_out:!summaries_out
        ~paths:(List.rev !paths) ()
  in
  List.iter (Racecheck.pp_finding stdout) findings;
  if findings <> [] then begin
    Printf.eprintf "racecheck: %d finding(s)\n" (List.length findings);
    exit 1
  end
