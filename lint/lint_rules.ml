open Parsetree

let rule_vector_completeness = "vector-completeness"
let rule_error_discipline = "error-discipline"
let rule_exception_swallowing = "exception-swallowing"
let rule_wal_before_page = "wal-before-page"
let rule_mli_coverage = "mli-coverage"
let rule_span_pairing = "span-pairing"
let rule_parse_error = "parse-error"
let rule_global_state = "global-state"
let rule_global_state_unsafe = "global-state-unsafe"
let rule_lock_order = "lock-order"
let rule_lock_cycle = "lock-cycle"
let rule_wal_interproc = "wal-interproc"

let baselinable rule =
  rule = rule_error_discipline
  || rule = rule_exception_swallowing
  || rule = rule_wal_before_page
  || rule = rule_global_state_unsafe
  || rule = rule_lock_order
  || rule = rule_wal_interproc

(* ---- file access ---- *)

let read_file full_path =
  let ic = open_in_bin full_path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let line_of_loc (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let parse_impl ~file ~full_path =
  let source = read_file full_path in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception exn ->
    let line = lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum in
    Error
      (Lint_diag.make ~rule:rule_parse_error ~file ~line:(max 1 line)
         (Fmt.str "cannot parse: %s" (Printexc.to_string exn)))

let parse_intf ~full_path =
  let source = read_file full_path in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf full_path;
  match Parse.interface lexbuf with
  | signature -> Some signature
  | exception _ -> None

(* ---- directory walking ---- *)

let rec walk acc dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then acc
  else
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || (entry <> "" && entry.[0] = '.') then acc
        else
          let path = Filename.concat dir entry in
          if Sys.is_directory path then walk acc path
          else if Filename.check_suffix entry ".ml" then path :: acc
          else acc)
      acc (Sys.readdir dir)

let ml_files_under ~root dir =
  let full = Filename.concat root dir in
  walk [] full
  |> List.map (fun p ->
         (* strip "<root>/" back off for root-relative reporting *)
         let prefix = root ^ Filename.dir_sep in
         if String.length p > String.length prefix
            && String.sub p 0 (String.length prefix) = prefix
         then String.sub p (String.length prefix) (String.length p - String.length prefix)
         else p)
  |> List.sort String.compare

(* ---- R2: error discipline ---- *)

let banned_fn = function
  | "failwith" | "invalid_arg" | "exit" -> true
  | _ -> false

let banned_path = function
  | [ f ] | [ "Stdlib"; f ] -> if banned_fn f then Some f else None
  | [ "Obj"; "magic" ] | [ "Stdlib"; "Obj"; "magic" ] -> Some "Obj.magic"
  | _ -> None

let error_discipline ?(allow_exit = false) ~file structure =
  let out = ref [] in
  let add line msg =
    out := Lint_diag.make ~rule:rule_error_discipline ~file ~line msg :: !out
  in
  let super = Ast_iterator.default_iterator in
  let expr it (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> begin
      match banned_path (Longident.flatten txt) with
      | Some "exit" when allow_exit -> ()
      | Some name ->
        add (line_of_loc e.pexp_loc)
          (Fmt.str
             "%s in extension/hot-path code — report failures as (_, Error.t) \
              result so the substrate can veto and roll back"
             name)
      | None -> ()
    end
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      ->
      add (line_of_loc e.pexp_loc)
        "assert false in extension/hot-path code — report failures as (_, \
         Error.t) result so the substrate can veto and roll back"
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.structure it structure;
  List.rev !out

(* ---- R3: exception swallowing ---- *)

let rec catch_all_kind (p : pattern) =
  match p.ppat_desc with
  | Ppat_any -> `Any
  | Ppat_var _ -> `Var
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> catch_all_kind p
  | Ppat_or (a, b) -> begin
    match (catch_all_kind a, catch_all_kind b) with
    | `No, `No -> `No
    | (`Any | `Var), _ | _, (`Any | `Var) -> `Any
  end
  | _ -> `No

let is_unit_expr (e : expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "()"; _ }, None) -> true
  | _ -> false

let exception_swallowing ~file structure =
  let out = ref [] in
  let add line msg =
    out := Lint_diag.make ~rule:rule_exception_swallowing ~file ~line msg :: !out
  in
  let super = Ast_iterator.default_iterator in
  let expr it (e : expression) =
    (match e.pexp_desc with
    | Pexp_try (_, cases) ->
      List.iter
        (fun c ->
          if c.pc_guard = None then
            match catch_all_kind c.pc_lhs with
            | `Any ->
              add (line_of_loc c.pc_lhs.ppat_loc)
                "catch-all handler (try ... with _ ->) can swallow veto/abort \
                 signals — match specific exceptions or re-raise"
            | `Var when is_unit_expr c.pc_rhs ->
              add (line_of_loc c.pc_lhs.ppat_loc)
                "catch-all handler discards the exception (with e -> ()) — \
                 match specific exceptions or re-raise"
            | `Var | `No -> ())
        cases
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.structure it structure;
  List.rev !out

(* ---- R4: WAL before page mutation ---- *)

let page_mutator = function
  | [ "Slotted";
      ("init" | "insert" | "insert_at" | "update" | "delete" | "make_reusable"
      | "set") ]
  | [ "Buffer_pool"; "alloc" ] -> true
  | _ -> false

let logging_call parts =
  match parts with
  | "Wal" :: _ | "Log_record" :: _ -> true
  (* the common logging services: Ctx.log, Txn_mgr.log_ext *)
  | [ "Ctx"; l ] | [ "Txn_mgr"; l ] ->
    String.length l >= 3 && String.sub l 0 3 = "log"
  | _ -> begin
    (* accept local helpers by naming convention: log_op, log_delete, ... *)
    match List.rev parts with
    | last :: _ ->
      String.length last >= 3 && String.sub last 0 3 = "log"
    | [] -> false
  end

let exempt_function name =
  let contains sub =
    let n = String.length name and m = String.length sub in
    let rec at i = i + m <= n && (String.sub name i m = sub || at (i + 1)) in
    at 0
  in
  (* undo and redo restore what the log already holds *)
  contains "undo" || contains "redo" || contains "unlogged"

(* Top-level (and module-nested) value bindings, each a "function scope" for
   the dominance approximation. *)
let rec bindings_of_structure acc structure =
  List.fold_left
    (fun acc item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.fold_left
          (fun acc vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> (txt, vb.pvb_loc, vb.pvb_expr) :: acc
            | _ -> acc)
          acc vbs
      | Pstr_module { pmb_expr; _ } -> bindings_of_module_expr acc pmb_expr
      | Pstr_recmodule mbs ->
        List.fold_left (fun acc mb -> bindings_of_module_expr acc mb.pmb_expr) acc mbs
      | _ -> acc)
    acc structure

and bindings_of_module_expr acc me =
  match me.pmod_desc with
  | Pmod_structure structure -> bindings_of_structure acc structure
  | Pmod_constraint (me, _) | Pmod_functor (_, me) -> bindings_of_module_expr acc me
  | _ -> acc

let ident_paths expr0 =
  let out = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr it (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> out := (Longident.flatten txt, e.pexp_loc) :: !out
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it expr0;
  List.rev !out

(* Order-aware: a mutation that comes before the body's first logging call
   (in source order) is reported, so a log call after the write does not
   excuse it. *)
let wal_before_page ~file structure =
  bindings_of_structure [] structure
  |> List.rev
  |> List.filter_map (fun (name, loc, body) ->
         if exempt_function name then None
         else
           let paths = ident_paths body in
           let offset (_, (l : Location.t)) = l.loc_start.Lexing.pos_cnum in
           let first_log =
             List.fold_left
               (fun acc p -> if logging_call (fst p) then min acc (offset p) else acc)
               max_int paths
           in
           let mutators =
             List.filter (fun p -> page_mutator (fst p) && offset p < first_log) paths
           in
           if mutators = [] then None
           else
             let mut_names =
               List.map (fun (p, _) -> String.concat "." p) mutators
               |> List.sort_uniq String.compare
             in
             Some
               (Lint_diag.make ~rule:rule_wal_before_page ~file
                  ~line:(line_of_loc loc)
                  (Fmt.str
                     "%s mutates pages (%s) before its first Wal./Log_record./\
                      Ctx.log call — log undo information before the page \
                      change reaches the buffer pool"
                     name
                     (String.concat ", " mut_names))))

(* ---- R1: vector completeness ---- *)

let mli_register_line full_path =
  match parse_intf ~full_path with
  | None -> None
  | Some signature ->
    List.find_map
      (fun item ->
        match item.psig_desc with
        | Psig_value vd when vd.pval_name.txt = "register" ->
          Some (line_of_loc vd.pval_loc)
        | _ -> None)
      signature

let registered_modules structure =
  let out = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr it (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> begin
      match List.rev (Longident.flatten txt) with
      | "register" :: modname :: _ -> out := modname :: !out
      | _ -> ()
    end
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.structure it structure;
  !out

let vector_completeness ~root ~ext_dirs ~factory =
  let factory_full = Filename.concat root factory in
  match parse_impl ~file:factory ~full_path:factory_full with
  | Error d -> [ d ]
  | Ok structure ->
    let registered = registered_modules structure in
    List.concat_map
      (fun (dir, label) ->
        ml_files_under ~root dir
        |> List.filter_map (fun ml ->
               let mli_full = Filename.concat root ml ^ "i" in
               let modname =
                 String.capitalize_ascii
                   Filename.(remove_extension (basename ml))
               in
               match mli_register_line mli_full with
               | None -> None (* helper module, not an extension package *)
               | Some line ->
                 if List.mem modname registered then None
                 else
                   Some
                     (Lint_diag.make ~rule:rule_vector_completeness
                        ~file:(ml ^ "i") ~line
                        (Fmt.str
                           "%s module %s declares [val register] but is not \
                            registered in the default factory (%s) — it would \
                            link but never dispatch"
                           label modname factory))))
      ext_dirs

(* ---- R6: Emit.enter / Emit.exit pairing ---- *)

let emit_tail name parts =
  match List.rev parts with
  | last :: modname :: _ -> last = name && modname = "Emit"
  | _ -> false

let span_pairing ~file structure =
  bindings_of_structure [] structure
  |> List.rev
  |> List.filter_map (fun (name, _loc, body) ->
         let paths = ident_paths body in
         let enters =
           List.filter (fun (p, _) -> emit_tail "enter" p) paths
         in
         let has_exit = List.exists (fun (p, _) -> emit_tail "exit" p) paths in
         match enters with
         | (_, loc) :: _ when not has_exit ->
           Some
             (Lint_diag.make ~rule:rule_span_pairing ~file
                ~line:(line_of_loc loc)
                (Fmt.str
                   "%s calls Emit.enter without Emit.exit in the same body \
                    — an unclosed span corrupts nesting and self-time \
                    attribution; close it on every path, or use \
                    Emit.with_span / Ctx.with_span"
                   name))
         | _ -> None)

(* ---- R7: global mutable state inventory ---- *)

type global_entry = {
  g_file : string;
  g_line : int;
  g_name : string;
  g_kind : string;
  g_class : string option;  (* None = unclassified *)
}

let global_classes = [ "ctx-owned"; "config-immutable-after-setup"; "UNSAFE" ]

let mutable_container = function
  | "Hashtbl" | "Buffer" | "Array" | "Bytes" | "Queue" | "Stack" | "Atomic"
  | "Weak" -> true
  | _ -> false

(* record-field names declared [mutable] anywhere in this file — the
   per-file approximation of "record literal with mutable fields" *)
let mutable_field_names structure =
  let out = ref [] in
  let rec go items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_type (_, decls) ->
          List.iter
            (fun d ->
              match d.ptype_kind with
              | Ptype_record labels ->
                List.iter
                  (fun l ->
                    if l.pld_mutable = Asttypes.Mutable then
                      out := l.pld_name.txt :: !out)
                  labels
              | _ -> ())
            decls
        | Pstr_module { pmb_expr; _ } -> go_mod pmb_expr
        | Pstr_recmodule mbs -> List.iter (fun mb -> go_mod mb.pmb_expr) mbs
        | _ -> ())
      items
  and go_mod me =
    match me.pmod_desc with
    | Pmod_structure s -> go s
    | Pmod_constraint (me, _) | Pmod_functor (_, me) -> go_mod me
    | _ -> ()
  in
  go structure;
  !out

let rec mutable_kind ~mutable_fields (e : expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> mutable_kind ~mutable_fields e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> begin
    match Longident.flatten txt with
    | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref cell"
    | [ m; ("create" | "make" | "init" | "make_matrix" | "copy") ]
    | [ "Stdlib"; m; ("create" | "make" | "init" | "make_matrix" | "copy") ]
      when mutable_container m ->
      Some (m ^ " state")
    | _ -> None
  end
  | Pexp_array (_ :: _) -> Some "array literal"
  | Pexp_lazy _ -> Some "lazy (memoizing) cell"
  | Pexp_record (fields, _)
    when List.exists
           (fun (({ txt; _ } : Longident.t Asttypes.loc), _) ->
             match List.rev (Longident.flatten txt) with
             | f :: _ -> List.mem f mutable_fields
             | [] -> false)
           fields -> Some "record with mutable fields"
  | _ -> None

let classification_of_attributes attrs =
  List.find_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "dmx.global" then None
      else
        match a.attr_payload with
        | PStr
            [ { pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _
              }
            ] -> Some (Some s)
        | _ -> Some None (* present but malformed *))
    attrs

let global_state ~file structure =
  let mutable_fields = mutable_field_names structure in
  let entries = ref [] in
  let diags = ref [] in
  let bindings items =
    List.iter
      (fun vb ->
        match (vb.pvb_pat.ppat_desc, mutable_kind ~mutable_fields vb.pvb_expr) with
        | Ppat_var { txt = name; _ }, Some kind ->
          let line = line_of_loc vb.pvb_loc in
          let cls = classification_of_attributes vb.pvb_attributes in
          let g_class = match cls with Some (Some s) -> Some s | _ -> None in
          entries :=
            { g_file = file; g_line = line; g_name = name; g_kind = kind;
              g_class }
            :: !entries;
          (match cls with
          | None ->
            diags :=
              Lint_diag.make ~rule:rule_global_state ~file ~line
                (Fmt.str
                   "module-level mutable state `%s' (%s) has no [@@dmx.global \
                    \"...\"] classification — classify as %s so the \
                    dmx-server refactor can ratchet hidden globals"
                   name kind
                   (String.concat " | " global_classes))
              :: !diags
          | Some None ->
            diags :=
              Lint_diag.make ~rule:rule_global_state ~file ~line
                (Fmt.str
                   "malformed [@@dmx.global] on `%s' — payload must be a \
                    string literal, one of %s"
                   name
                   (String.concat " | " global_classes))
              :: !diags
          | Some (Some c) when not (List.mem c global_classes) ->
            diags :=
              Lint_diag.make ~rule:rule_global_state ~file ~line
                (Fmt.str
                   "unknown [@@dmx.global \"%s\"] class on `%s' — must be one \
                    of %s"
                   c name
                   (String.concat " | " global_classes))
              :: !diags
          | Some (Some "UNSAFE") ->
            diags :=
              Lint_diag.make ~rule:rule_global_state_unsafe ~file ~line
                (Fmt.str
                   "`%s' (%s) is classified UNSAFE — shared mutable state \
                    that must move into Ctx before dmx-server lands"
                   name kind)
              :: !diags
          | Some (Some _) -> ())
        | _ -> ())
      items
  in
  let rec go items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) -> bindings vbs
        | Pstr_module { pmb_expr; _ } -> go_mod pmb_expr
        | Pstr_recmodule mbs -> List.iter (fun mb -> go_mod mb.pmb_expr) mbs
        | _ -> ())
      items
  and go_mod me =
    match me.pmod_desc with
    | Pmod_structure s -> go s
    | Pmod_constraint (me, _) | Pmod_functor (_, me) -> go_mod me
    | _ -> ()
  in
  go structure;
  (List.rev !entries, List.rev !diags)

(* ---- R5: mli coverage ---- *)

let mli_coverage ~root ~dirs =
  List.concat_map
    (fun dir ->
      ml_files_under ~root dir
      |> List.filter_map (fun ml ->
             if Sys.file_exists (Filename.concat root ml ^ "i") then None
             else
               Some
                 (Lint_diag.make ~rule:rule_mli_coverage ~file:ml ~line:1
                    "no corresponding .mli — every module must declare its \
                     interface (extensions interact through signatures only)")))
    dirs
