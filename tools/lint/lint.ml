(* Determinism lint over OCaml parsetrees (compiler-libs).

   Walks every .ml file it is pointed at with an [Ast_iterator] and flags
   constructs that can leak nondeterminism — or order-dependence on
   implementation details — into simulation results:

     hashtbl-order   Hashtbl.iter / Hashtbl.fold / Hashtbl.to_seq* whose
                     result does not flow through an explicit sort.  OCaml
                     hash tables are deterministic for a fixed insertion
                     history, but bucket order is an implementation detail:
                     it shifts under resize thresholds, key-hash changes and
                     stdlib upgrades, so depending on it is a hazard.
     wall-clock      Sys.time / Unix.gettimeofday and friends: real time
                     must never reach simulation state (bench code that
                     times the host is allowlisted).
     global-rng      Random.* — all randomness must come from the seeded,
                     splittable Terradir_util.Splitmix streams.
     poly-compare    bare polymorphic [compare] (and (=)/(<>) applied to a
                     lambda): breaks on function-bearing types, gives
                     surprising NaN behavior on floats, and silently picks
                     structural order where a domain order was meant.
     marshal         Marshal.* — output is not stable across compiler
                     versions and happily serializes closures.
     obs-in-hot-path Obs.record in protocol code.  Every recording site
                     must carry an annotation naming the level gate and
                     the event's frequency, so hook growth on the hot
                     path stays a reviewed decision rather than drift.
     boxed-float     a [mutable f : float] field in a record that also has
                     a non-float field.  Such a record stores its floats
                     boxed, so every write allocates a box and takes the
                     write barrier, and a long-lived record keeps each box
                     alive past a minor collection.  Keep hot floats in a
                     [floatarray] cell; annotate the cold ones.

   Suppression, per-site, with a recorded justification:

     - an inline annotation on the flagged line or the line above:
         (* lint: <rule> <justification> *)
       ("ordered" is accepted as an alias for hashtbl-order);
     - an allowlist file with "path rule justification" lines, matching
       any scanned file whose path ends with [path].

   An annotation without a justification is itself an error
   (bad-annotation), and so is a suppression that no finding uses
   (unused-suppression) — stale justifications must not accumulate. *)

type finding = Suppress.finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

let rule_hashtbl = "hashtbl-order"
let rule_wall_clock = "wall-clock"
let rule_global_rng = "global-rng"
let rule_poly_compare = "poly-compare"
let rule_marshal = "marshal"
let rule_obs_hot_path = "obs-in-hot-path"
let rule_boxed_float = "boxed-float"
let rule_bad_annotation = Suppress.rule_bad_annotation
let rule_unused_suppression = Suppress.rule_unused_suppression
let rule_parse_error = "parse-error"

let all_rules =
  [
    rule_hashtbl; rule_wall_clock; rule_global_rng; rule_poly_compare; rule_marshal;
    rule_obs_hot_path; rule_boxed_float;
  ]

module SSet = Set.Make (String)

(* Iteration primitives whose visit order is the bucket order. *)
let hashtbl_unordered =
  SSet.of_list [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

(* Applying any of these to an unordered iteration's result launders it. *)
let sort_functions =
  SSet.of_list
    [
      "List.sort"; "List.sort_uniq"; "List.stable_sort"; "List.fast_sort";
      "Array.sort"; "Array.stable_sort"; "Array.fast_sort";
    ]

let wall_clock_functions =
  SSet.of_list
    [
      "Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Unix.gmtime"; "Unix.localtime";
      "Unix.mktime";
    ]

let ident_name lid =
  match Longident.flatten lid with
  | parts -> String.concat "." parts
  | exception _ -> ""

(* "ordered" is accepted as a shorthand for hashtbl-order in annotations. *)
let rule_alias r = if r = "ordered" then rule_hashtbl else r

(* ---- the AST walk ---- *)

let lint_source ~path ~source =
  let findings = ref [] in
  let add loc rule msg =
    let p = loc.Location.loc_start in
    findings := { file = path; line = p.Lexing.pos_lnum;
                  col = p.Lexing.pos_cnum - p.Lexing.pos_bol; rule; msg } :: !findings
  in
  let exempt_rng = Filename.basename path = "splitmix.ml" in
  (* > 0 while visiting the arguments of a sort application: an unordered
     hashtable iteration there is explicitly laundered. *)
  let in_sorted = ref 0 in
  let is_lambda (e : Parsetree.expression) =
    match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false
  in
  let rec head_is_sort (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> SSet.mem (ident_name txt) sort_functions
    | Pexp_apply (f, _) -> head_is_sort f
    | _ -> false
  in
  let check_ident loc lid =
    let name = ident_name lid in
    (match lid with
     | Longident.Ldot (Lident "Hashtbl", fn) when SSet.mem fn hashtbl_unordered ->
       if !in_sorted = 0 then
         add loc rule_hashtbl
           (Printf.sprintf
              "Hashtbl.%s visits bucket order; sort the result or annotate why order cannot matter"
              fn)
     | _ -> ());
    if SSet.mem name wall_clock_functions then
      add loc rule_wall_clock (name ^ " reads the wall clock; simulation state must only see Engine.now");
    if (not exempt_rng)
       && (match lid with
           | Longident.Ldot (Lident "Random", _) -> true
           | Longident.Ldot (Ldot (Lident "Random", _), _) -> true
           | _ -> false)
    then add loc rule_global_rng (name ^ " uses the global RNG; draw from a Terradir_util.Splitmix stream");
    (match name with
     | "compare" | "Stdlib.compare" | "Pervasives.compare" ->
       add loc rule_poly_compare
         "polymorphic compare; use the element type's comparator (Int.compare, Float.compare, ...)"
     | _ -> ());
    (match lid with
     | Longident.Ldot (Lident "Marshal", fn) ->
       add loc rule_marshal ("Marshal." ^ fn ^ " is unstable across compiler versions; use an explicit codec")
     | _ -> ());
    (match lid with
     | Longident.Ldot (Lident "Obs", "record")
     | Longident.Ldot (Ldot (_, "Obs"), "record") ->
       add loc rule_obs_hot_path
         (name
        ^ " in protocol code; annotate the level gate and how often the event fires")
     | _ -> ())
  in
  let is_float (t : Parsetree.core_type) =
    match t.ptyp_desc with
    | Ptyp_constr ({ txt = Lident "float" | Ldot (Lident "Stdlib", "float"); _ }, []) -> true
    | _ -> false
  in
  (* An all-float record is stored flat and unboxed; any other field makes
     its float fields boxed. *)
  let check_labels (labels : Parsetree.label_declaration list) =
    if List.exists (fun (l : Parsetree.label_declaration) -> not (is_float l.pld_type)) labels then
      List.iter
        (fun (l : Parsetree.label_declaration) ->
          if l.pld_mutable = Asttypes.Mutable && is_float l.pld_type then
            add l.pld_loc rule_boxed_float
              (Printf.sprintf
                 "mutable float field %s in a record with non-float fields boxes every write; \
                  keep it in a floatarray cell or annotate why it is cold"
                 l.pld_name.txt))
        labels
  in
  let iterator =
    let default = Ast_iterator.default_iterator in
    let type_declaration it (td : Parsetree.type_declaration) =
      (match td.ptype_kind with
       | Ptype_record labels -> check_labels labels
       | Ptype_variant cstrs ->
         List.iter
           (fun (c : Parsetree.constructor_declaration) ->
             match c.pcd_args with Pcstr_record labels -> check_labels labels | Pcstr_tuple _ -> ())
           cstrs
       | Ptype_abstract | Ptype_open -> ());
      default.type_declaration it td
    in
    let expr it (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_ident { txt; loc } ->
        check_ident loc txt;
        default.expr it e
      | Pexp_apply (f, args) when head_is_sort f ->
        (* sort application: its arguments — including a nested unordered
           iteration producing the sort's input — are in sorted context *)
        it.expr it f;
        incr in_sorted;
        List.iter (fun (_, a) -> it.expr it a) args;
        decr in_sorted
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "|>"; _ }; _ }, [ (_, lhs); (_, rhs) ])
        when head_is_sort rhs ->
        it.expr it rhs;
        incr in_sorted;
        it.expr it lhs;
        decr in_sorted
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "@@"; _ }; _ }, [ (_, lhs); (_, rhs) ])
        when head_is_sort lhs ->
        it.expr it lhs;
        incr in_sorted;
        it.expr it rhs;
        decr in_sorted
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); loc }; _ }, args)
        when List.exists (fun (_, a) -> is_lambda a) args ->
        add loc rule_poly_compare
          (Printf.sprintf "(%s) applied to a function value always raises; compare explicitly" op);
        default.expr it e
      | _ -> default.expr it e
    in
    { default with expr; type_declaration }
  in
  (try
     let lexbuf = Lexing.from_string source in
     Location.init lexbuf path;
     let ast = Parse.implementation lexbuf in
     iterator.structure iterator ast
   with exn ->
     let line, col =
       match exn with
       | Syntaxerr.Error e ->
         let p = (Syntaxerr.location_of_error e).Location.loc_start in
         (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
       | _ -> (1, 0)
     in
     findings := { file = path; line; col; rule = rule_parse_error;
                   msg = "file does not parse as an OCaml implementation" } :: !findings);
  let suppressions = Suppress.scan_annotations ~tool:"lint" ~alias:rule_alias source in
  Suppress.apply_inline ~tool:"lint" ~path ~suppressions !findings

let lint_file path =
  let source = In_channel.with_open_text path In_channel.input_all in
  lint_source ~path ~source

(* ---- driving ---- *)

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let compare_findings = Suppress.compare_findings

let run ~allowlist ~paths =
  let files = List.concat_map ml_files_under paths in
  let raw = List.concat_map lint_file files in
  List.sort compare_findings (Suppress.apply_allowlist ~allowlist raw)

let pp_finding = Suppress.pp_finding
