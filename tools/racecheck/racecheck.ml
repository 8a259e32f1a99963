(* Domain-safety race check over OCaml parsetrees (compiler-libs).

   PR 7 sharded the event engine across OCaml 5 domains; the
   byte-identical-for-every-K guarantee now rests on a convention: code
   running on shard lanes must touch cross-lane mutable state only
   through [Atomic], under a consistently-held [Mutex], or via the
   window-barrier outbox protocol.  This tool machine-checks that
   convention in two passes.

   Pass 1 walks every module it is pointed at and collects

     (a) module-level mutable ROOTS — top-level [ref]s, [Hashtbl.create],
         [Buffer]s, arrays, queues/stacks, record literals with mutable
         fields, [Atomic.make] cells and [Mutex.create] locks (the last
         two classified, not flagged) — plus, for the summary table,
         record types with mutable fields escaping through the module's
         [.mli]; and

     (b) per-function EFFECT SUMMARIES: which roots the function reads
         and writes (and under which syntactic mutex guards — a
         [Mutex.protect m (fun () -> ...)] body or a
         [Mutex.lock m] ... [Mutex.unlock m] span), which functions it
         references, and whether it is a shard-lane ENTRY (it lives in
         the engine's lane machinery — shard.ml, engine.ml, pool.ml —
         or constructs lane thunks by referencing
         [Engine.schedule]/[schedule_at], [Pool.Gang.launch], [Pool.map],
         [Runner.map] or [Domain.spawn]).

   Pass 2 computes two interprocedural closures over the summaries:

     - TAINT: the functions reachable from lane entries along reference
       edges (references, not just application heads, so higher-order
       call sites count) — an over-approximation of "may run on a shard
       lane";
     - GUARD ENVIRONMENTS: a fixpoint assigning every non-exported
       function the intersection, over all its reference sites, of the
       mutex guards held there (plus the referencing function's own
       environment).  A helper that is only ever named inside
       [Mutex.protect lock (fun () -> ...)] is thereby proven to run
       with [lock] held even though its own body takes no lock — e.g.
       [Name.intern_child].  Exported functions (named in the [.mli],
       or every function when there is no [.mli]) and lane entries get
       the empty environment: anyone may call them bare.

   and reports:

     bare-shared-mutable      a mutable root with no guarded write
                              anywhere, reachable from lane code
                              (reported at the root's definition);
     inconsistent-guard       a root that is mutex-guarded at some write
                              sites but written — or, when every write
                              is guarded, read from lane code — without
                              the guard (reported at the bare site);
     outbox-bypass            direct use of [Shard.enqueue] or the lane
                              outboxes outside the engine internals:
                              cross-lane events must go through
                              [Engine.schedule] so the open window's
                              outbox protocol applies;
     atomic-read-modify-write a lane-reachable [Atomic.get] -> [Atomic.set]
                              sequence on the same root in one function
                              with no common mutex: lost updates — use
                              [fetch_and_add]/[compare_and_set] or hold
                              the lock.

   Suppression mirrors the determinism lint (tools/lint), sharing its
   machinery: inline [(* race: <rule> <why> *)] on the flagged line or
   the line above, or an allowlist file; unjustified annotations and
   suppressions no finding uses are themselves errors.

   Known soundness limits (documented in DESIGN §14): closures created
   under a guard are assumed to run under it (true for the immediate
   [Mutex.protect] argument and stdlib iterators, not for escaping
   closures); [lock]/[unlock] tracking is straight-line; per-instance
   mutable state (record fields behind abstract types) is out of scope —
   lane confinement of per-server state is the engine's partitioning
   invariant, audited at runtime, not a static property of this tool. *)

module Suppress = Terradir_lint.Suppress

type finding = Suppress.finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

let rule_bare = "bare-shared-mutable"
let rule_guard = "inconsistent-guard"
let rule_outbox = "outbox-bypass"
let rule_rmw = "atomic-read-modify-write"
let rule_parse_error = "parse-error"

let all_rules = [ rule_bare; rule_guard; rule_outbox; rule_rmw ]

module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* ---- collected facts ---- *)

type pos = { p_file : string; p_line : int; p_col : int }

type root_kind = Plain of string (* description of the container form *) | Atomic | Lock

type root = {
  r_key : string; (* "Module.name" *)
  r_kind : root_kind;
  r_pos : pos;
}

type access = {
  ac_root : string;
  ac_write : bool;
  ac_guards : SSet.t; (* mutex root keys held at the site *)
  ac_pos : pos;
}

type fref = {
  fr_callee : string; (* function key *)
  fr_guards : SSet.t;
}

type func = {
  fn_key : string; (* "Module.name" *)
  fn_module : string;
  fn_name : string;
  fn_pos : pos;
  mutable fn_accesses : access list;
  mutable fn_refs : fref list;
  mutable fn_entry : bool;
  mutable fn_agets : (string * SSet.t) list; (* Atomic.get sites: root, guards *)
  mutable fn_asets : (string * SSet.t * pos) list; (* naive Atomic.set sites *)
}

type analysis = {
  roots : root SMap.t; (* by root key *)
  funcs : func SMap.t; (* by function key *)
  exported : SSet.t; (* exported function keys *)
  exposed_mutable : (string * string list) list; (* (Module.type, mutable fields) via .mli *)
  outbox_sites : (pos * string) list; (* site, offending name *)
  parse_errors : finding list;
  sources : (string * string) list; (* scanned .ml path -> source, for suppressions *)
}

(* ---- helpers ---- *)

let pos_of loc =
  let p = loc.Location.loc_start in
  { p_file = p.Lexing.pos_fname; p_line = p.Lexing.pos_lnum; p_col = p.Lexing.pos_cnum - p.Lexing.pos_bol }

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Files whose every function is lane-resident: the engine's own lane
   machinery runs on worker domains by construction. *)
let entry_files = SSet.of_list [ "shard.ml"; "engine.ml"; "pool.ml" ]

(* A reference to any of these marks the containing function as a lane
   entry: it constructs thunks that later execute on a shard lane (or a
   worker domain of the experiment fan-out pool). *)
let entry_markers =
  [
    ("Engine", "schedule"); ("Engine", "schedule_at"); ("Gang", "launch"); ("Pool", "map");
    ("Runner", "map"); ("Domain", "spawn");
  ]

(* Modules allowed to touch Shard queues/outboxes directly. *)
let outbox_internal = SSet.of_list [ "Shard"; "Engine" ]

let outbox_functions = SSet.of_list [ "enqueue"; "outbox_push"; "drain_outboxes" ]

let flatten lid = match Longident.flatten lid with parts -> parts | exception _ -> []

(* Mutating operations per container module (first argument is the
   mutated value); any other mention of a root is a read. *)
let write_ops =
  [
    ("Hashtbl", [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ("Buffer",
     [ "add_char"; "add_string"; "add_bytes"; "add_substring"; "add_subbytes"; "add_utf_8_uchar";
       "add_channel"; "add_buffer"; "clear"; "reset"; "truncate" ]);
    ("Array", [ "set"; "unsafe_set"; "fill"; "blit"; "sort"; "stable_sort"; "fast_sort" ]);
    ("Bytes", [ "set"; "unsafe_set"; "fill"; "blit" ]);
    ("Queue", [ "push"; "add"; "pop"; "take"; "clear"; "transfer"; "drop" ]);
    ("Stack", [ "push"; "pop"; "drop"; "clear" ]);
  ]

let is_write_op m op =
  List.exists (fun (m', ops) -> m = m' && List.mem op ops) write_ops

(* ---- pass 1a: top-level names (roots and functions) per module ---- *)

type modinfo = {
  mi_roots : SSet.t;
  mi_funcs : SSet.t;
}

let rec peel (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e) -> peel e
  | _ -> e

let is_function e =
  match (peel e).pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

(* Record fields declared mutable anywhere in the scanned tree: a
   top-level literal mentioning one is a mutable root. *)
let mutable_fields_of_structure str =
  let fields = ref SSet.empty in
  let it =
    let default = Ast_iterator.default_iterator in
    let type_declaration it (td : Parsetree.type_declaration) =
      (match td.ptype_kind with
      | Ptype_record labels ->
        List.iter
          (fun (l : Parsetree.label_declaration) ->
            if l.pld_mutable = Mutable then fields := SSet.add l.pld_name.txt !fields)
          labels
      | _ -> ());
      default.type_declaration it td
    in
    { default with type_declaration }
  in
  it.structure it str;
  !fields

let root_kind_of_expr ~mutable_fields e =
  match (peel e).pexp_desc with
  | Pexp_apply (f, _) -> (
    match (peel f).pexp_desc with
    | Pexp_ident { txt; _ } -> (
      match flatten txt with
      | [ "ref" ] -> Some (Plain "ref")
      | [ "Atomic"; "make" ] -> Some Atomic
      | [ "Mutex"; "create" ] | [ "Condition"; "create" ] -> Some Lock
      | [ "Hashtbl"; "create" ] -> Some (Plain "Hashtbl.t")
      | [ "Buffer"; "create" ] -> Some (Plain "Buffer.t")
      | [ "Array"; ("make" | "init" | "create_float" | "of_list" | "copy") ] -> Some (Plain "array")
      | [ "Float"; "Array"; ("create" | "make") ] -> Some (Plain "floatarray")
      | [ "Bytes"; ("create" | "make" | "of_string") ] -> Some (Plain "bytes")
      | [ "Queue"; "create" ] -> Some (Plain "Queue.t")
      | [ "Stack"; "create" ] -> Some (Plain "Stack.t")
      | [ "Weak"; "create" ] -> Some (Plain "Weak.t")
      | _ -> None)
    | _ -> None)
  | Pexp_array (_ :: _) -> Some (Plain "array literal")
  | Pexp_record (fields, _) ->
    if
      List.exists
        (fun ((lid : Longident.t Location.loc), _) ->
          match flatten lid.txt with
          | [] -> false
          | parts -> SSet.mem (List.nth parts (List.length parts - 1)) mutable_fields)
        fields
    then Some (Plain "record with mutable fields")
    else None
  | _ -> None

(* ---- .mli facts ---- *)

type mli_facts = {
  mf_values : SSet.t;
  mf_mutable_records : (string * string list) list; (* type name, mutable fields *)
}

let mli_facts_of_signature sg =
  let values = ref SSet.empty and records = ref [] in
  let rec item (si : Parsetree.signature_item) =
    match si.psig_desc with
    | Psig_value vd -> values := SSet.add vd.pval_name.txt !values
    | Psig_type (_, tds) ->
      List.iter
        (fun (td : Parsetree.type_declaration) ->
          match td.ptype_kind with
          | Ptype_record labels ->
            let muts =
              List.filter_map
                (fun (l : Parsetree.label_declaration) ->
                  if l.pld_mutable = Mutable then Some l.pld_name.txt else None)
                labels
            in
            if muts <> [] then records := (td.ptype_name.txt, muts) :: !records
          | _ -> ())
        tds
    | Psig_module md -> module_type md.pmd_type
    | Psig_recmodule mds -> List.iter (fun (md : Parsetree.module_declaration) -> module_type md.pmd_type) mds
    | _ -> ()
  and module_type (mt : Parsetree.module_type) =
    match mt.pmty_desc with Pmty_signature sg -> List.iter item sg | _ -> ()
  in
  List.iter item sg;
  { mf_values = !values; mf_mutable_records = List.rev !records }

(* ---- pass 1b: summarize one module's functions ---- *)

(* [scope] is the innermost-first chain of module names for resolving
   bare identifiers; [mods] maps every scanned (sub)module name to its
   top-level names. *)
let resolve_name ~mods ~scope name select =
  let rec go = function
    | [] -> None
    | m :: rest -> (
      match SMap.find_opt m mods with
      | Some mi when SSet.mem name (select mi) -> Some (m ^ "." ^ name)
      | _ -> go rest)
  in
  go scope

let resolve_parts ~mods ~scope parts select =
  match parts with
  | [] -> None
  | [ name ] -> resolve_name ~mods ~scope name select
  | parts ->
    let n = List.length parts in
    let m = List.nth parts (n - 2) and name = List.nth parts (n - 1) in
    (match SMap.find_opt m mods with
    | Some mi when SSet.mem name (select mi) -> Some (m ^ "." ^ name)
    | _ -> None)

let summarize_module ~mods ~scope_module str ~funcs ~outbox_sites =
  let scope_of inner = inner @ [ scope_module ] in
  (* Walk one top-level function body, accumulating into [fn]. *)
  let walk_function ~scope fn body =
    let guards = ref SSet.empty in
    let resolve_root parts = resolve_parts ~mods ~scope parts (fun mi -> mi.mi_roots) in
    let resolve_func parts = resolve_parts ~mods ~scope parts (fun mi -> mi.mi_funcs) in
    let add_access root ~write loc =
      fn.fn_accesses <-
        { ac_root = root; ac_write = write; ac_guards = !guards; ac_pos = pos_of loc }
        :: fn.fn_accesses
    in
    let last2 parts =
      let n = List.length parts in
      if n >= 2 then Some (List.nth parts (n - 2), List.nth parts (n - 1)) else None
    in
    let note_ident loc lid =
      let parts = flatten lid in
      (match last2 parts with
      | Some pair ->
        if List.mem pair entry_markers then fn.fn_entry <- true;
        let m, f = pair in
        if m = "Shard" && SSet.mem f outbox_functions && not (SSet.mem scope_module outbox_internal)
        then outbox_sites := (pos_of loc, m ^ "." ^ f) :: !outbox_sites
      | None -> ());
      (match resolve_root parts with
      | Some root -> add_access root ~write:false loc
      | None -> ());
      match resolve_func parts with
      | Some callee -> fn.fn_refs <- { fr_callee = callee; fr_guards = !guards } :: fn.fn_refs
      | None -> ()
    in
    let rec expr (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> note_ident loc txt
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> apply loc txt args
      | Pexp_setfield (lhs, fld, v) ->
        (match fld.txt with
        | Longident.Lident f | Longident.Ldot (_, f) ->
          if f = "outboxes" && not (SSet.mem scope_module outbox_internal) then
            outbox_sites := (pos_of fld.loc, "<field> outboxes") :: !outbox_sites
        | _ -> ());
        (match lhs.pexp_desc with
        | Pexp_ident { txt; loc } -> (
          match resolve_root (flatten txt) with
          | Some root -> add_access root ~write:true loc
          | None -> expr lhs)
        | _ -> expr lhs);
        expr v
      | Pexp_field (lhs, fld) ->
        (match fld.txt with
        | Longident.Lident f | Longident.Ldot (_, f) ->
          if f = "outboxes" && not (SSet.mem scope_module outbox_internal) then
            outbox_sites := (pos_of fld.loc, "<field> outboxes") :: !outbox_sites
        | _ -> ());
        expr lhs
      | _ -> Ast_iterator.default_iterator.expr iter_shim e
    and apply loc lid args =
      let parts = flatten lid in
      let nolabel = List.filter_map (function (Asttypes.Nolabel, a) -> Some a | _ -> None) args in
      let root_of_arg (a : Parsetree.expression) =
        match (peel a).pexp_desc with
        | Pexp_ident { txt; _ } -> resolve_root (flatten txt)
        | _ -> None
      in
      let visit_rest skip =
        List.iter (fun (_, a) -> if not (List.memq a skip) then expr a) args
      in
      match (parts, nolabel) with
      | [ ":=" ], (l :: _ as all) -> (
        match root_of_arg l with
        | Some root ->
          add_access root ~write:true loc;
          visit_rest [ l ]
        | None -> List.iter expr all)
      | [ ("incr" | "decr") ], [ l ] -> (
        match root_of_arg l with
        | Some root -> add_access root ~write:true loc
        | None -> expr l)
      | [ "Mutex"; "protect" ], [ m; fbody ] -> (
        match (root_of_arg m, (peel fbody).pexp_desc) with
        | Some lock, Pexp_fun (_, _, _, body) ->
          let saved = !guards in
          guards := SSet.add lock !guards;
          expr body;
          guards := saved
        | _ ->
          expr m;
          expr fbody)
      | [ "Mutex"; "lock" ], [ m ] -> (
        match root_of_arg m with Some lock -> guards := SSet.add lock !guards | None -> expr m)
      | [ "Mutex"; "unlock" ], [ m ] -> (
        match root_of_arg m with Some lock -> guards := SSet.remove lock !guards | None -> expr m)
      | [ "Atomic"; "get" ], l :: _ -> (
        match root_of_arg l with
        | Some root ->
          fn.fn_agets <- (root, !guards) :: fn.fn_agets;
          add_access root ~write:false loc;
          visit_rest [ l ]
        | None -> visit_rest [])
      | [ "Atomic"; "set" ], l :: _ -> (
        match root_of_arg l with
        | Some root ->
          fn.fn_asets <- (root, !guards, pos_of loc) :: fn.fn_asets;
          add_access root ~write:true loc;
          visit_rest [ l ]
        | None -> visit_rest [])
      | [ "Atomic"; ("exchange" | "compare_and_set" | "fetch_and_add" | "incr" | "decr") ], l :: _
        -> (
        match root_of_arg l with
        | Some root ->
          add_access root ~write:true loc;
          visit_rest [ l ]
        | None -> visit_rest [])
      | [ m; op ], l :: _ when is_write_op m op -> (
        match root_of_arg l with
        | Some root ->
          add_access root ~write:true loc;
          visit_rest [ l ]
        | None ->
          note_ident loc lid;
          visit_rest [])
      | _ ->
        note_ident loc lid;
        visit_rest []
    and iter_shim =
      (* Route the default iterator's recursive calls back through [expr]
         so guard state and classification stay live in subtrees we have
         no special case for. *)
      let default = Ast_iterator.default_iterator in
      { default with expr = (fun _ e -> expr e) }
    in
    expr body
  in
  (* Walk the structure, entering submodules with an extended scope. *)
  let rec structure ~inner (items : Parsetree.structure) =
    List.iter (item ~inner) items
  and item ~inner (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = name; _ } when is_function vb.pvb_expr ->
            let self = match inner with m :: _ -> m | [] -> scope_module in
            let key = self ^ "." ^ name in
            (match SMap.find_opt key !funcs with
            | Some fn -> walk_function ~scope:(scope_of inner) fn (peel vb.pvb_expr)
            | None -> ())
          | _ -> ())
        vbs
    | Pstr_module mb -> (
      match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
      | Some name, Pmod_structure str -> structure ~inner:(name :: inner) str
      | _ -> ())
    | _ -> ()
  in
  structure ~inner:[] str

(* Collect pass-1a names for one module (and its submodules). *)
let names_of_structure ~mutable_fields ~scope_module str =
  let acc = ref SMap.empty in
  let get m =
    match SMap.find_opt m !acc with
    | Some mi -> mi
    | None -> { mi_roots = SSet.empty; mi_funcs = SSet.empty }
  in
  let add_root m name = acc := SMap.add m { (get m) with mi_roots = SSet.add name (get m).mi_roots } !acc in
  let add_func m name = acc := SMap.add m { (get m) with mi_funcs = SSet.add name (get m).mi_funcs } !acc in
  let roots = ref [] in
  let rec structure ~self (items : Parsetree.structure) = List.iter (item ~self) items
  and item ~self (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = name; _ } -> (
            match root_kind_of_expr ~mutable_fields vb.pvb_expr with
            | Some kind ->
              add_root self name;
              roots :=
                { r_key = self ^ "." ^ name; r_kind = kind; r_pos = pos_of vb.pvb_pat.ppat_loc }
                :: !roots
            | None -> if is_function vb.pvb_expr then add_func self name)
          | _ -> ())
        vbs
    | Pstr_module mb -> (
      match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
      | Some name, Pmod_structure str -> structure ~self:name str
      | _ -> ())
    | _ -> ()
  in
  structure ~self:scope_module str;
  (!acc, !roots)

(* ---- the driver: parse + both passes ---- *)

let parse_impl ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  Parse.implementation lexbuf

let parse_intf ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  Parse.interface lexbuf

let parse_error ~msg path exn =
  let line, col =
    match exn with
    | Syntaxerr.Error e ->
      let p = (Syntaxerr.location_of_error e).Location.loc_start in
      (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)
    | _ -> (1, 0)
  in
  { file = path; line; col; rule = rule_parse_error; msg }

let analyze files =
  let impls = List.filter (fun (p, _) -> Filename.check_suffix p ".ml") files in
  let intfs = List.filter (fun (p, _) -> Filename.check_suffix p ".mli") files in
  let parse_errors = ref [] in
  let parsed =
    List.filter_map
      (fun (path, source) ->
        match parse_impl ~path source with
        | ast -> Some (path, source, ast)
        | exception exn ->
          parse_errors :=
            parse_error ~msg:"file does not parse as an OCaml implementation" path exn
            :: !parse_errors;
          None)
      impls
  in
  let mli_facts =
    List.filter_map
      (fun (path, source) ->
        match parse_intf ~path source with
        | sg -> Some (module_of_path path, mli_facts_of_signature sg)
        | exception _ -> None)
      intfs
  in
  (* Shared set of mutable record field names (for root detection). *)
  let mutable_fields =
    List.fold_left
      (fun acc (_, _, ast) -> SSet.union acc (mutable_fields_of_structure ast))
      SSet.empty parsed
  in
  (* Pass 1a: names. *)
  let mods = ref SMap.empty and all_roots = ref [] in
  List.iter
    (fun (path, _, ast) ->
      let scope_module = module_of_path path in
      let names, roots = names_of_structure ~mutable_fields ~scope_module ast in
      SMap.iter
        (fun m mi ->
          let merged =
            match SMap.find_opt m !mods with
            | Some prev ->
              { mi_roots = SSet.union prev.mi_roots mi.mi_roots;
                mi_funcs = SSet.union prev.mi_funcs mi.mi_funcs }
            | None -> mi
          in
          mods := SMap.add m merged !mods)
        names;
      all_roots := roots @ !all_roots)
    parsed;
  let roots =
    List.fold_left (fun acc r -> SMap.add r.r_key r acc) SMap.empty !all_roots
  in
  (* Function table, exported set. *)
  let funcs = ref SMap.empty and exported = ref SSet.empty in
  List.iter
    (fun (path, _, ast) ->
      let scope_module = module_of_path path in
      let base = Filename.basename path in
      let entry_file = SSet.mem base entry_files in
      let mf = List.assoc_opt scope_module mli_facts in
      let names, _ = names_of_structure ~mutable_fields ~scope_module ast in
      SMap.iter
        (fun m mi ->
          SSet.iter
            (fun name ->
              let key = m ^ "." ^ name in
              let is_exported =
                match mf with None -> true | Some f -> SSet.mem name f.mf_values
              in
              if is_exported then exported := SSet.add key !exported;
              funcs :=
                SMap.add key
                  {
                    fn_key = key;
                    fn_module = m;
                    fn_name = name;
                    fn_pos = { p_file = path; p_line = 0; p_col = 0 };
                    fn_accesses = [];
                    fn_refs = [];
                    fn_entry = entry_file;
                    fn_agets = [];
                    fn_asets = [];
                  }
                  !funcs)
            mi.mi_funcs)
        names)
    parsed;
  (* Pass 1b: summaries. *)
  let outbox_sites = ref [] in
  List.iter
    (fun (path, _, ast) ->
      let scope_module = module_of_path path in
      summarize_module ~mods:!mods ~scope_module ast ~funcs ~outbox_sites)
    parsed;
  let exposed_mutable =
    List.concat_map
      (fun (m, f) -> List.map (fun (ty, flds) -> (m ^ "." ^ ty, flds)) f.mf_mutable_records)
      mli_facts
  in
  {
    roots;
    funcs = !funcs;
    exported = !exported;
    exposed_mutable;
    outbox_sites = !outbox_sites;
    parse_errors = !parse_errors;
    sources = List.map (fun (p, s, _) -> (p, s)) parsed;
  }

(* ---- pass 2: closures ---- *)

(* Taint: functions reachable from lane entries along reference edges. *)
let taint_closure a =
  let tainted = ref SSet.empty in
  let rec visit key =
    if not (SSet.mem key !tainted) then begin
      tainted := SSet.add key !tainted;
      match SMap.find_opt key a.funcs with
      | Some fn -> List.iter (fun r -> visit r.fr_callee) fn.fn_refs
      | None -> ()
    end
  in
  SMap.iter (fun key fn -> if fn.fn_entry then visit key) a.funcs;
  !tainted

(* Guard environments: [None] is Top (never referenced — effectively any
   guard); exported functions and lane entries start, and stay, empty. *)
let guard_envs a =
  let incoming =
    SMap.fold
      (fun _ fn acc ->
        List.fold_left
          (fun acc r ->
            let prev = try SMap.find r.fr_callee acc with Not_found -> [] in
            SMap.add r.fr_callee ((fn.fn_key, r.fr_guards) :: prev) acc)
          acc fn.fn_refs)
      a.funcs SMap.empty
  in
  let env = ref SMap.empty in
  let get key = try SMap.find key !env with Not_found -> None in
  SMap.iter
    (fun key fn ->
      if fn.fn_entry || SSet.mem key a.exported then env := SMap.add key (Some SSet.empty) !env)
    a.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    SMap.iter
      (fun key fn ->
        if not (fn.fn_entry || SSet.mem key a.exported) then begin
          let meet =
            List.fold_left
              (fun acc (caller, site_guards) ->
                match get caller with
                | None -> acc (* Top caller contributes nothing yet *)
                | Some caller_env ->
                  let g = SSet.union site_guards caller_env in
                  (match acc with None -> Some g | Some prev -> Some (SSet.inter prev g)))
              None
              (try SMap.find key incoming with Not_found -> [])
          in
          match meet with
          | None -> ()
          | Some g ->
            if get key <> Some g then begin
              env := SMap.add key (Some g) !env;
              changed := true
            end
        end)
      a.funcs
  done;
  get

(* ---- the report ---- *)

let mk pos rule msg = { file = pos.p_file; line = pos.p_line; col = pos.p_col; rule; msg }

let raw_findings a =
  let tainted = taint_closure a in
  let env = guard_envs a in
  (* Effective guards of an access in [fn]: site guards plus everything
     the guard-environment fixpoint proved [fn] is always called under.
     Top environment = dead code = never executes: treat as guarded. *)
  let effective fn guards =
    match env fn.fn_key with None -> None | Some e -> Some (SSet.union guards e)
  in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* Per-root site table: (function, access, effective guards). *)
  let sites_of root_key =
    SMap.fold
      (fun _ fn acc ->
        List.fold_left
          (fun acc ac ->
            if ac.ac_root = root_key then
              match effective fn ac.ac_guards with
              | None -> acc
              | Some g -> (fn, ac, g) :: acc
            else acc)
          acc fn.fn_accesses)
      a.funcs []
  in
  SMap.iter
    (fun key root ->
      match root.r_kind with
      | Lock -> ()
      | Atomic ->
        (* Lane-reachable get->set sequences on the same atomic in one
           function, with no mutex common to both: lost updates. *)
        SMap.iter
          (fun _ fn ->
            if SSet.mem fn.fn_key tainted then
              match env fn.fn_key with
              | None -> ()
              | Some e ->
                List.iter
                  (fun (set_root, set_guards, pos) ->
                    if set_root = key then
                      let gets =
                        List.filter_map
                          (fun (r, g) -> if r = key then Some (SSet.union g e) else None)
                          fn.fn_agets
                      in
                      if
                        gets <> []
                        && not
                             (List.exists
                                (fun g -> not (SSet.is_empty (SSet.inter g (SSet.union set_guards e))))
                                gets)
                      then
                        add
                          (mk pos rule_rmw
                             (Printf.sprintf
                                "Atomic.get %s ... Atomic.set %s in %s loses concurrent updates; use \
                                 fetch_and_add/compare_and_set or hold one lock around both"
                                key key fn.fn_key)))
                  fn.fn_asets)
          a.funcs
      | Plain desc ->
        let sites = sites_of key in
        let lane_sites = List.filter (fun (fn, _, _) -> SSet.mem fn.fn_key tainted) sites in
        if lane_sites <> [] then begin
          let writes = List.filter (fun (_, ac, _) -> ac.ac_write) sites in
          if writes <> [] then begin
            let guarded_writes = List.filter (fun (_, _, g) -> not (SSet.is_empty g)) writes in
            if guarded_writes = [] then begin
              let via =
                List.fold_left
                  (fun acc (fn, _, _) ->
                    match acc with
                    | None -> Some fn.fn_key
                    | Some b -> if String.compare fn.fn_key b < 0 then Some fn.fn_key else Some b)
                  None lane_sites
              in
              add
                (mk root.r_pos rule_bare
                   (Printf.sprintf
                      "%s (%s) is shard-lane reachable (via %s) with no Atomic, mutex or outbox \
                       protection"
                      key desc
                      (match via with Some v -> v | None -> "?")))
            end
            else begin
              let common =
                List.fold_left
                  (fun acc (_, _, g) -> match acc with None -> Some g | Some p -> Some (SSet.inter p g))
                  None guarded_writes
              in
              let common = match common with Some c -> c | None -> SSet.empty in
              let lock_name =
                match SSet.min_elt_opt common with
                | Some l -> l
                | None -> (
                  match guarded_writes with
                  | (_, _, g) :: _ -> ( match SSet.min_elt_opt g with Some l -> l | None -> "?")
                  | [] -> "?")
              in
              (* Bare writes while other writes take a lock. *)
              List.iter
                (fun (fn, ac, g) ->
                  if SSet.is_empty g then
                    add
                      (mk ac.ac_pos rule_guard
                         (Printf.sprintf "%s is written under %s elsewhere but bare in %s" key
                            lock_name fn.fn_key)))
                writes;
              (* Every write guarded by one common lock: lane reads must
                 take it too, or they observe torn/stale structure. *)
              if not (SSet.is_empty common) then
                List.iter
                  (fun (fn, ac, g) ->
                    if (not ac.ac_write) && SSet.is_empty (SSet.inter g common) then
                      add
                        (mk ac.ac_pos rule_guard
                           (Printf.sprintf
                              "%s is guarded by %s at every write but read bare in lane code (%s)"
                              key lock_name fn.fn_key)))
                  lane_sites
            end
          end
        end)
    a.roots;
  List.iter
    (fun (pos, name) ->
      add
        (mk pos rule_outbox
           (Printf.sprintf
              "%s outside the engine internals bypasses the window outbox protocol; cross-lane \
               events must go through Engine.schedule"
              name)))
    a.outbox_sites;
  !findings @ a.parse_errors

(* ---- suppressions ---- *)

let findings a =
  let raw = raw_findings a in
  (* Apply inline annotations file by file — including files with no
     findings, so stale annotations surface. *)
  List.concat_map
    (fun (path, source) ->
      let here = List.filter (fun f -> f.file = path) raw in
      let suppressions = Suppress.scan_annotations ~tool:"race" source in
      Suppress.apply_inline ~tool:"race" ~path ~suppressions here)
    a.sources
  @ List.filter (fun f -> not (List.mem_assoc f.file a.sources)) raw

(* ---- summaries CSV ---- *)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let summaries a =
  let tainted = taint_closure a in
  let env = guard_envs a in
  let b = Buffer.create 4096 in
  Buffer.add_string b "kind,module,name,detail,lane,guard_env,reads,writes,calls\n";
  let join set = String.concat ";" (SSet.elements set) in
  let sorted_keys m = SMap.fold (fun k _ acc -> k :: acc) m [] |> List.sort String.compare in
  List.iter
    (fun key ->
      let r = SMap.find key a.roots in
      let kind =
        match r.r_kind with Atomic -> "atomic" | Lock -> "lock" | Plain d -> d
      in
      Buffer.add_string b
        (Printf.sprintf "root,%s,%s,%s,,,,,\n"
           (csv_escape (List.hd (String.split_on_char '.' key)))
           (csv_escape (List.nth (String.split_on_char '.' key) 1))
           (csv_escape kind)))
    (sorted_keys a.roots);
  List.iter
    (fun (ty, fields) ->
      Buffer.add_string b
        (Printf.sprintf "exposed-type,%s,%s,%s,,,,,\n"
           (csv_escape (List.hd (String.split_on_char '.' ty)))
           (csv_escape (List.nth (String.split_on_char '.' ty) 1))
           (csv_escape (String.concat ";" fields))))
    (List.sort compare a.exposed_mutable);
  List.iter
    (fun key ->
      let fn = SMap.find key a.funcs in
      let reads, writes =
        List.fold_left
          (fun (r, w) ac -> if ac.ac_write then (r, SSet.add ac.ac_root w) else (SSet.add ac.ac_root r, w))
          (SSet.empty, SSet.empty) fn.fn_accesses
      in
      let calls = List.fold_left (fun s r -> SSet.add r.fr_callee s) SSet.empty fn.fn_refs in
      let envs = match env key with None -> "top" | Some e -> join e in
      Buffer.add_string b
        (Printf.sprintf "function,%s,%s,%s,%s,%s,%s,%s,%s\n" (csv_escape fn.fn_module)
           (csv_escape fn.fn_name)
           (if fn.fn_entry then "entry" else "")
           (if SSet.mem key tainted then "lane" else "")
           (csv_escape envs) (csv_escape (join reads)) (csv_escape (join writes))
           (csv_escape (join calls))))
    (sorted_keys a.funcs);
  Buffer.contents b

(* ---- driving ---- *)

(* Every .ml/.mli under [path]; directories named "fixtures" below the
   root hold deliberately violating inputs for the tools and are skipped. *)
let rec ocaml_files_under ?(root = true) path =
  if Sys.is_directory path then
    if (not root) && Filename.basename path = "fixtures" then []
    else
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.concat_map (fun entry -> ocaml_files_under ~root:false (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then [ path ]
  else []

let compare_findings = Suppress.compare_findings

let pp_finding = Suppress.pp_finding

let run ?allowlist ?summaries_out ~paths () =
  let files =
    List.concat_map (fun p -> ocaml_files_under p) paths
    |> List.map (fun p -> (p, In_channel.with_open_text p In_channel.input_all))
  in
  let a = analyze files in
  (match summaries_out with
  | Some out -> Out_channel.with_open_text out (fun oc -> Out_channel.output_string oc (summaries a))
  | None -> ());
  let fs = findings a in
  List.sort compare_findings (Suppress.apply_allowlist ~allowlist fs)
