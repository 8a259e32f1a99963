(* Unused-export check over interface files (compiler-libs parsetrees).

   Every [val] in an interface under the checked directory — vals in
   submodule signatures such as [Pool.Gang] included — should be read by
   code outside its own module.  The check parses every implementation
   under the reader paths and records each identifier it reads, with the
   module paths that identifier may name.  A qualified path is resolved
   through the module aliases ([module E = Terradir_experiments]) in
   scope, and may also name a submodule of any module opened in scope
   ([open M], [let open M in], [M.( ... )], [include M]); a bare name
   may be any opened module's val.  A read [A.B.x] names val [x] of the
   interface module path [P] when [P] is a suffix of [A.B] so resolved,
   which lets library wrappers ([Terradir_util.Cache]) match without a
   special case.  Outside the checked directory, a head module named
   like a file in the reader's own directory is that sibling module, not
   an export.  The rules:

     unused-export     no implementation outside the val's own module
                       reads it;
     test-only-export  only implementations under a --tests directory
                       read it.

   Resolution goes by name and over-approximates: a local binding that
   shadows an opened val counts as a read, so the check can miss a dead
   export but does not flag a read one.  What it does not resolve —
   functor arguments, [include]d signatures, first-class modules — could
   flag a live export; the build then fails when the export is removed.

   A test-only export may be kept with a reason in the shared allowlist
   (tools/lint/suppress.ml), keyed by the val's qualified name instead of
   a path:

     Cache.put_unchecked test-only-export <why>

   An entry that matches no finding fails the run, and so does any
   unused-export entry: an unused export is deleted, not excused.  There
   are no inline annotations. *)

open Racecheck

let rule_unused = "unused-export"
let rule_test_only = "test-only-export"

(* ---- exports: the vals of one interface ---- *)

type export = {
  x_mli : string;
  x_path : string list; (* compilation unit, then submodules *)
  x_name : string;
  x_line : int;
  x_col : int;
}

let exports_of_signature ~path sg =
  let acc = ref [] in
  let rec items mpath sg = List.iter (item mpath) sg
  and item mpath (si : Parsetree.signature_item) =
    match si.psig_desc with
    | Psig_value vd ->
      let p = vd.pval_name.loc.loc_start in
      acc :=
        { x_mli = path; x_path = mpath; x_name = vd.pval_name.txt; x_line = p.pos_lnum;
          x_col = p.pos_cnum - p.pos_bol }
        :: !acc
    | Psig_module
        { pmd_name = { txt = Some name; _ }; pmd_type = { pmty_desc = Pmty_signature sg; _ }; _ } ->
      items (mpath @ [ name ]) sg
    | _ -> ()
  in
  items [ module_of_path path ] sg;
  List.rev !acc

(* ---- reads: identifiers one implementation names ---- *)

type env = {
  aliases : (string * string list option) list; (* [None]: a module local to the file *)
  opens : string list list;
}

(* The module path [parts] names, or [None] when it is local to the
   reader (a struct defined in the file, or a sibling file's module). *)
let resolve ~siblings env = function
  | [] -> Some []
  | head :: rest -> (
    match List.assoc_opt head env.aliases with
    | Some target -> Option.map (fun t -> t @ rest) target
    | None -> if SSet.mem head siblings then None else Some (head :: rest))

(* Calls [read name candidates] for every identifier in [str]. *)
let reads_of_structure ~siblings ~read str =
  let env = ref { aliases = []; opens = [] } in
  let scoped f =
    let saved = !env in
    f ();
    env := saved
  in
  let open_module (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> (
      match resolve ~siblings !env (flatten txt) with
      | Some p -> env := { !env with opens = p :: !env.opens }
      | None -> ())
    | _ -> ()
  in
  let bind_module name (me : Parsetree.module_expr) =
    let target =
      match me.pmod_desc with
      | Pmod_ident { txt; _ } -> resolve ~siblings !env (flatten txt)
      | _ -> None
    in
    env := { !env with aliases = (name, target) :: !env.aliases }
  in
  let note lid =
    match List.rev (flatten lid) with
    | [] -> ()
    | name :: rev_quals ->
      let quals = List.rev rev_quals in
      let opened = List.map (fun o -> o @ quals) !env.opens in
      let direct = if quals = [] then [] else Option.to_list (resolve ~siblings !env quals) in
      read name (direct @ opened)
  in
  let default = Ast_iterator.default_iterator in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> note txt
    | Pexp_open (od, body) ->
      scoped (fun () ->
          it.module_expr it od.popen_expr;
          open_module od.popen_expr;
          it.expr it body)
    | Pexp_letmodule ({ txt = Some name; _ }, me, body) ->
      scoped (fun () ->
          it.module_expr it me;
          bind_module name me;
          it.expr it body)
    | _ -> default.expr it e
  in
  let structure (it : Ast_iterator.iterator) items =
    scoped (fun () -> List.iter (it.structure_item it) items)
  in
  let structure_item (it : Ast_iterator.iterator) (si : Parsetree.structure_item) =
    default.structure_item it si;
    match si.pstr_desc with
    | Pstr_open od -> open_module od.popen_expr
    | Pstr_include incl -> open_module incl.pincl_mod
    | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> bind_module name pmb_expr
    | Pstr_recmodule mbs ->
      List.iter
        (fun (mb : Parsetree.module_binding) ->
          Option.iter (fun name -> env := { !env with aliases = (name, None) :: !env.aliases })
            mb.pmb_name.txt)
        mbs
    | _ -> ()
  in
  let it = { default with expr; structure; structure_item } in
  it.structure it str

(* ---- the check ---- *)

let is_suffix suffix l =
  let skip = List.length l - List.length suffix in
  skip >= 0 && List.filteri (fun i _ -> i >= skip) l = suffix

let under dir path = path = dir || String.starts_with ~prefix:(dir ^ "/") path

(* [lib] holds the interfaces checked; [readers] and [tests] are
   (path, source) lists of every file read, [lib]'s own included in
   [readers]; only their implementations are parsed for reads. *)
let findings ~lib ~readers ~tests =
  let errors = ref [] in
  let exports =
    List.concat_map
      (fun (path, source) ->
        if under lib path && Filename.check_suffix path ".mli" then
          match parse_intf ~path source with
          | sg -> exports_of_signature ~path sg
          | exception exn ->
            errors :=
              parse_error ~msg:"file does not parse as an OCaml interface" path exn :: !errors;
            []
        else [])
      readers
  in
  (* name -> (reading file, from a test, candidate module paths) *)
  let reads = Hashtbl.create 4096 in
  let modules_in dir files =
    List.filter_map
      (fun (p, _) -> if Filename.dirname p = dir then Some (module_of_path p) else None)
      files
    |> SSet.of_list
  in
  let scan ~test files =
    List.iter
      (fun (path, source) ->
        if Filename.check_suffix path ".ml" then
          match parse_impl ~path source with
          | str ->
            let siblings =
              if under lib path then SSet.empty else modules_in (Filename.dirname path) files
            in
            reads_of_structure ~siblings str ~read:(fun name cands ->
                if cands <> [] then Hashtbl.add reads name (path, test, cands))
          | exception exn ->
            errors :=
              parse_error ~msg:"file does not parse as an OCaml implementation" path exn :: !errors)
      files
  in
  scan ~test:false readers;
  scan ~test:true tests;
  (* A finding, paired with the qualified name the allowlist keys it by. *)
  let check x =
    let own = Filename.remove_extension x.x_mli ^ ".ml" in
    let readers =
      List.filter
        (fun (path, _, cands) -> path <> own && List.exists (is_suffix x.x_path) cands)
        (Hashtbl.find_all reads x.x_name)
    in
    let qualified = String.concat "." (x.x_path @ [ x.x_name ]) in
    let report rule msg =
      Some
        ( { file = x.x_mli; line = x.x_line; col = x.x_col; rule; msg = qualified ^ " " ^ msg },
          qualified )
    in
    if List.exists (fun (_, test, _) -> not test) readers then None
    else if readers = [] then
      report rule_unused ("is exported but nothing outside " ^ Filename.basename own ^ " reads it")
    else
      let files =
        List.sort_uniq String.compare (List.map (fun (p, _, _) -> Filename.basename p) readers)
      in
      report rule_test_only ("is read only by tests (" ^ String.concat ", " files ^ ")")
  in
  let found = List.filter_map check exports in
  let subject f = Option.value (List.assq_opt f found) ~default:f.file in
  (List.map fst found @ !errors, subject)

(* ---- driving ---- *)

let run ?allowlist ~lib ~tests ~paths () =
  let load paths =
    List.concat_map (fun p -> ocaml_files_under p) paths
    |> List.map (fun p -> (p, In_channel.with_open_text p In_channel.input_all))
  in
  let readers = load (if List.mem lib paths then paths else lib :: paths) in
  let found, subject = findings ~lib ~readers ~tests:(load tests) in
  (* An unused export is deleted, never excused: the allowlist only sees
     the other findings, so an unused-export entry is itself stale. *)
  let unused, rest = List.partition (fun f -> f.rule = rule_unused) found in
  List.sort compare_findings (unused @ Suppress.apply_allowlist ~subject ~allowlist rest)
