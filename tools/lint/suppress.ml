(* Suppression machinery shared by the static-analysis tools (the
   determinism lint and the domain-safety race check).

   Both tools report [finding]s and both accept per-site suppressions
   with a recorded justification:

     - an inline annotation on the flagged line or the line above:
         (* <tool>: <rule> <justification> *)
     - an allowlist file with "path rule justification" lines, matching
       any scanned file whose path ends with [path].

   An annotation without a justification is itself an error
   (bad-annotation), and so is a suppression that no finding uses
   (unused-suppression) — stale justifications must not accumulate. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

let rule_bad_annotation = "bad-annotation"
let rule_unused_suppression = "unused-suppression"

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let pp_finding oc f =
  Printf.fprintf oc "%s:%d:%d: [%s] %s\n" f.file f.line f.col f.rule f.msg

(* ---- inline annotations ---- *)

type suppression = {
  s_rule : string;
  s_line : int;  (** line the annotation sits on *)
  s_ok : bool;  (** has a non-empty justification *)
  mutable s_used : bool;
}

let find_substring line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub line i m = sub then Some i else go (i + 1) in
  go 0

(* Parse "(* <tool>: <rule> <justification> *)" out of one source line. *)
let suppression_of_line ~marker ~alias lineno line =
  match find_substring line marker with
  | None -> None
  | Some i ->
    let rest = String.sub line (i + String.length marker)
                 (String.length line - i - String.length marker) in
    let rest = match find_substring rest "*)" with
      | Some j -> String.sub rest 0 j
      | None -> rest
    in
    let rest = String.trim rest in
    let rule, justification =
      match String.index_opt rest ' ' with
      | None -> (rest, "")
      | Some sp -> (String.sub rest 0 sp, String.trim (String.sub rest sp (String.length rest - sp)))
    in
    let rule = alias rule in
    Some { s_rule = rule; s_line = lineno; s_ok = justification <> ""; s_used = false }

(* [tool] is the annotation keyword ("lint", "race"); [alias] maps
   shorthand rule names onto canonical ones. *)
let scan_annotations ~tool ?(alias = Fun.id) source =
  let marker = "(* " ^ tool ^ ":" in
  String.split_on_char '\n' source
  |> List.mapi (fun i line -> suppression_of_line ~marker ~alias (i + 1) line)
  |> List.filter_map Fun.id

(* Apply inline suppressions: an annotation covers findings of its rule on
   its own line or the line directly below it.  Returns the surviving
   findings plus bad-annotation / unused-suppression errors. *)
let apply_inline ~tool ~path ~suppressions findings =
  let surviving =
    List.filter
      (fun f ->
        match
          List.find_opt
            (fun s -> s.s_rule = f.rule && (s.s_line = f.line || s.s_line = f.line - 1))
            suppressions
        with
        | Some s when s.s_ok ->
          s.s_used <- true;
          false
        | Some s ->
          (* covers the finding only once justified; keep both errors *)
          s.s_used <- true;
          true
        | None -> true)
      findings
  in
  let annotation_errors =
    List.concat_map
      (fun s ->
        let bad =
          if s.s_ok then []
          else
            [ { file = path; line = s.s_line; col = 0; rule = rule_bad_annotation;
                msg =
                  tool ^ " annotation needs a justification: (* " ^ tool ^ ": " ^ s.s_rule
                  ^ " <why> *)" } ]
        in
        let stale =
          if s.s_used then []
          else
            [ { file = path; line = s.s_line; col = 0; rule = rule_unused_suppression;
                msg = "annotation suppresses no " ^ s.s_rule ^ " finding on this or the next line" } ]
        in
        bad @ stale)
      suppressions
  in
  surviving @ annotation_errors

(* ---- allowlist ---- *)

type allow_entry = {
  a_path : string;
  a_rule : string;
  a_line : int;
  mutable a_used : bool;
}

let parse_allowlist path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter_map (fun (lineno, line) ->
           if line = "" || line.[0] = '#' then None
           else
             match String.split_on_char ' ' line with
             | file :: rule :: (_ :: _ as justification)
               when String.trim (String.concat " " justification) <> "" ->
               Some { a_path = file; a_rule = rule; a_line = lineno; a_used = false }
             | _ ->
               (* malformed line: surface as a finding via a poisoned entry *)
               Some { a_path = "\x00malformed"; a_rule = line; a_line = lineno; a_used = false })

let path_matches ~scanned ~allow =
  scanned = allow
  || (let ls = String.length scanned and la = String.length allow in
      ls > la && String.sub scanned (ls - la) la = allow
      && scanned.[ls - la - 1] = '/')

(* Drop findings matched by the allowlist; append malformed-line and
   unused-entry errors attributed to the allowlist file itself.  An
   entry's first column matches [subject f], the finding's file unless
   the tool keys its findings otherwise (the unused-export check keys
   them by qualified val name). *)
let apply_allowlist ?(subject = fun f -> f.file) ~allowlist findings =
  let allow = match allowlist with None -> [] | Some f -> parse_allowlist f in
  let surviving =
    List.filter
      (fun f ->
        match
          List.find_opt
            (fun a -> a.a_rule = f.rule && path_matches ~scanned:(subject f) ~allow:a.a_path)
            allow
        with
        | Some a ->
          a.a_used <- true;
          false
        | None -> true)
      findings
  in
  let allowlist_errors =
    match allowlist with
    | None -> []
    | Some alf ->
      List.concat_map
        (fun a ->
          if a.a_path = "\x00malformed" then
            [ { file = alf; line = a.a_line; col = 0; rule = rule_bad_annotation;
                msg = "malformed allowlist line (want: <path> <rule> <justification>)" } ]
          else if not a.a_used then
            [ { file = alf; line = a.a_line; col = 0; rule = rule_unused_suppression;
                msg = Printf.sprintf "allowlist entry %s %s matches no finding" a.a_path a.a_rule } ]
          else [])
        allow
  in
  surviving @ allowlist_errors
