(* Whole-program model for the interprocedural lint passes (R8, R9).

   The callgraph is approximate and purely syntactic: every [.ml] under the
   analysis roots is parsed, top-level (and module-nested) value bindings
   become functions, and calls are resolved per-[Longident] — a reference
   [Mod.f] resolves to the binding [f] of the file [mod.ml] when one exists,
   a bare [f] resolves within the current module. Dispatch through the
   registry procedure vectors, first-class functions, and functor
   applications is NOT resolved; those edges are the runtime lockdep's job
   (DESIGN.md section 12 lists the false-negative classes). *)

open Parsetree

(* ---- lock levels: the db -> relation -> page/record hierarchy ---- *)

let level_relation = 1
let level_record = 2

let level_name = function
  | 0 -> "db"
  | 1 -> "relation"
  | 2 -> "record"
  | _ -> "?"

(* Lock modes as strings so an unknown (parameter-passed) mode can flow
   through the analysis without inventing a value. *)
let known_mode = function
  | "IS" | "IX" | "S" | "SIX" | "X" -> true
  | _ -> false

let modes_conflict a b =
  (* mirror of Lock_mode.compatible, on the string encoding; unknown modes
     are treated as non-conflicting to avoid false positives *)
  match (a, b) with
  | ("IS" | "IX" | "S" | "SIX"), "IS" | "IS", ("IX" | "S" | "SIX") -> false
  | "IX", "IX" | "S", "S" -> false
  | _ ->
    if known_mode a && known_mode b then true
    else false

(* ---- events ---- *)

type event =
  | Acquire of { level : int; mode : string; line : int }
  | Log of int
  | Mutate of { what : string; line : int }
  | Call of { callee : string; mode_arg : string option; line : int }

type func = {
  fq_name : string;  (* "Heap.insert" *)
  file : string;  (* root-relative *)
  line : int;
  events : event list;  (* source order *)
}

type t = {
  funcs : (string, func) Hashtbl.t;  (* fq_name -> func *)
  order : string list;  (* deterministic iteration order *)
}

(* ---- extraction ---- *)

let line_of_loc (loc : Location.t) = loc.loc_start.Lexing.pos_lnum
let offset_of_loc (loc : Location.t) = loc.loc_start.Lexing.pos_cnum

let page_mutator parts =
  match parts with
  | [ "Slotted";
      ("init" | "insert" | "insert_at" | "update" | "delete" | "make_reusable"
      | "set") ]
  | [ "Buffer_pool"; "alloc" ] -> true
  | _ -> false

let logging_call parts =
  match parts with
  | "Wal" :: _ | "Log_record" :: _ -> true
  | [ "Ctx"; l ] | [ "Txn_mgr"; l ] ->
    String.length l >= 3 && String.sub l 0 3 = "log"
  | _ -> begin
    match List.rev parts with
    | last :: _ -> String.length last >= 3 && String.sub last 0 3 = "log"
    | [] -> false
  end

(* Strip library wrappers and Stdlib so [Dmx_txn.Txn_mgr.log_ext] and
   [Txn_mgr.log_ext] resolve identically. *)
let strip_prefixes parts =
  List.filter
    (fun p ->
      not
        (p = "Stdlib"
        || (String.length p > 4 && String.sub p 0 4 = "Dmx_")))
    parts

let rec constr_level (e : expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, _) -> begin
    match List.rev (Longident.flatten txt) with
    | "Db" :: _ -> Some 0
    | "Relation" :: _ -> Some level_relation
    | "Record" :: _ -> Some level_record
    | _ -> None
  end
  | Pexp_constraint (e, _) -> constr_level e
  | _ -> None

let rec mode_of_expr (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } | Pexp_construct ({ txt; _ }, None) -> begin
    match List.rev (Longident.flatten txt) with
    | m :: _ when known_mode m -> Some m
    | _ -> None
  end
  | Pexp_constraint (e, _) -> mode_of_expr e
  | _ -> None

let acquire_fn parts =
  match strip_prefixes parts with
  | [ "Ctx"; "lock" ] | [ "Lock_table"; ("acquire" | "enqueue") ] -> true
  | _ -> false

(* Collect events of one binding body, in source order. *)
let events_of_body ~modname ~local_bindings body =
  let raw = ref [] in
  let push off ev = raw := (off, ev) :: !raw in
  let super = Ast_iterator.default_iterator in
  let rec expr it (e : expression) =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc; _ }, args) ->
      let parts = Longident.flatten txt in
      (if acquire_fn parts then begin
         (* extract the hierarchy level from the resource constructor and
            the mode from the ~mode argument; a site whose resource is a
            runtime value is invisible here (documented false negative —
            the runtime lockdep covers it) *)
         let level =
           List.fold_left
             (fun acc (_, a) ->
               match acc with Some _ -> acc | None -> constr_level a)
             None args
         in
         let mode =
           List.fold_left
             (fun acc (lbl, a) ->
               match (acc, lbl) with
               | Some _, _ -> acc
               | None, Asttypes.Labelled "mode" -> mode_of_expr a
               | None, _ -> None)
             None args
         in
         match level with
         | Some level ->
           let mode = Option.value ~default:"?" mode in
           push (offset_of_loc pexp_loc)
             (Acquire { level; mode; line = line_of_loc pexp_loc })
         | None -> ()
       end
       else if page_mutator (strip_prefixes parts) then
         push (offset_of_loc pexp_loc)
           (Mutate
              { what = String.concat "." parts; line = line_of_loc pexp_loc })
       else if logging_call (strip_prefixes parts) then
         push (offset_of_loc pexp_loc) (Log (line_of_loc pexp_loc))
       else begin
         (* a call that may resolve to a known binding; remember a Lock_mode
            constant argument so one-line lock helpers can be specialized *)
         let mode_arg =
           List.fold_left
             (fun acc (_, a) ->
               match acc with Some _ -> acc | None -> mode_of_expr a)
             None args
         in
         let callee =
           match strip_prefixes parts with
           | [ f ] when Hashtbl.mem local_bindings f -> Some (modname ^ "." ^ f)
           | ps -> begin
             match List.rev ps with
             | f :: m :: _ -> Some (m ^ "." ^ f)
             | _ -> None
           end
         in
         match callee with
         | Some callee ->
           push (offset_of_loc pexp_loc)
             (Call { callee; mode_arg; line = line_of_loc pexp_loc })
         | None -> ()
       end);
      (* recurse into the arguments only — revisiting the function ident
         would double-count the site as a bare reference *)
      List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
    | _ -> expr_other it e
  and expr_other it (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
      (* bare references (pipelines, partial application, function-valued
         args): mutators and loggers still count; call edges only when the
         target resolves locally or is qualified *)
      let parts = strip_prefixes (Longident.flatten txt) in
      if page_mutator parts then
        push (offset_of_loc e.pexp_loc)
          (Mutate
             {
               what = String.concat "." (Longident.flatten txt);
               line = line_of_loc e.pexp_loc;
             })
      else if logging_call parts then
        push (offset_of_loc e.pexp_loc) (Log (line_of_loc e.pexp_loc))
      else begin
        match parts with
        | [ f ] when Hashtbl.mem local_bindings f ->
          push (offset_of_loc e.pexp_loc)
            (Call
               {
                 callee = modname ^ "." ^ f;
                 mode_arg = None;
                 line = line_of_loc e.pexp_loc;
               })
        | f :: _ :: _ -> begin
          match List.rev parts with
          | g :: m :: _ when f <> g ->
            push (offset_of_loc e.pexp_loc)
              (Call
                 {
                   callee = m ^ "." ^ g;
                   mode_arg = None;
                   line = line_of_loc e.pexp_loc;
                 })
          | _ -> ()
        end
        | _ -> ()
      end
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it body;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !raw |> List.map snd

(* Top-level and module-nested value bindings of a structure. *)
let rec value_bindings acc structure =
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
      | Pstr_module { pmb_expr; _ } -> value_bindings_of_mod acc pmb_expr
      | Pstr_recmodule mbs ->
        List.fold_left
          (fun acc mb -> value_bindings_of_mod acc mb.pmb_expr)
          acc mbs
      | _ -> acc)
    acc structure

and value_bindings_of_mod acc me =
  match me.pmod_desc with
  | Pmod_structure s -> value_bindings acc s
  | Pmod_constraint (me, _) | Pmod_functor (_, me) ->
    value_bindings_of_mod acc me
  | _ -> acc

let modname_of_file file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

let load ~root ~dirs ~parse_impl ~ml_files_under =
  let files =
    List.concat_map (ml_files_under ~root) dirs |> List.sort_uniq String.compare
  in
  let t = { funcs = Hashtbl.create 512; order = [] } in
  let order = ref [] in
  List.iter
    (fun file ->
      let full_path = Filename.concat root file in
      match parse_impl ~file ~full_path with
      | Error _ -> () (* parse errors are reported by the per-file passes *)
      | Ok structure ->
        let modname = modname_of_file file in
        let bindings = List.rev (value_bindings [] structure) in
        let local = Hashtbl.create 32 in
        List.iter (fun (n, _, _) -> Hashtbl.replace local n ()) bindings;
        List.iter
          (fun (name, loc, body) ->
            let fq_name = modname ^ "." ^ name in
            let events = events_of_body ~modname ~local_bindings:local body in
            let f =
              { fq_name; file; line = line_of_loc loc; events }
            in
            (* later bindings of the same name shadow earlier ones, which
               matches OCaml scoping for the common [let x ... let x] case *)
            if not (Hashtbl.mem t.funcs fq_name) then order := fq_name :: !order;
            Hashtbl.replace t.funcs fq_name f)
          bindings)
    files;
  { t with order = List.rev !order }

let find t fq = Hashtbl.find_opt t.funcs fq
let functions t = List.filter_map (find t) t.order

(* ==== R8: static lock-order analysis ==================================== *)

(* Held-lock summaries are small sets of (level, mode); the analysis is
   context-sensitive in that summary, memoized on (function, held, mode
   substitution for '?' acquires). *)

module Held = struct
  type t = (int * string) list (* sorted, deduped *)

  let empty = []
  let add (l, m) t = List.sort_uniq compare ((l, m) :: t)
  let max_level t = List.fold_left (fun acc (l, _) -> max acc l) (-1) t

  let conflicting_at lvl mode t =
    List.filter (fun (l, m) -> l = lvl && modes_conflict m mode) t
end

type lock_site = {
  ls_fun : string;
  ls_file : string;
  ls_line : int;
  ls_level : int;
  ls_mode : string;
}

type lock_violation = {
  lv_site : lock_site;
  lv_held : int * string;  (* the held (level, mode) that makes it invalid *)
  lv_kind : [ `Hierarchy | `Reacquire ];
  lv_path : string;  (* one witness call path, entry-first *)
}

type lock_result = {
  lr_sites : lock_site list;
  lr_edges : ((int * int) * string) list;  (* (held level -> acquired level), witness *)
  lr_violations : lock_violation list;
  lr_cycles : (int list * string) list;  (* level cycle, witness description *)
}

let lock_analysis t =
  let sites = ref [] in
  let edges : (int * int, string) Hashtbl.t = Hashtbl.create 8 in
  let violations : (string * int * int * string * int * string, lock_violation) Hashtbl.t
      =
    Hashtbl.create 16
  in
  let memo : (string * Held.t * string option, Held.t) Hashtbl.t =
    Hashtbl.create 256
  in
  let in_progress : (string * Held.t * string option, unit) Hashtbl.t =
    Hashtbl.create 64
  in
  (* [path] is entry-first, used only for witness strings. *)
  let rec analyze fq held subst path =
    let key = (fq, held, subst) in
    match Hashtbl.find_opt memo key with
    | Some out -> out
    | None ->
      if Hashtbl.mem in_progress key then held
      else begin
        match find t fq with
        | None -> held
        | Some f ->
          Hashtbl.replace in_progress key ();
          let path = path @ [ fq ] in
          let held =
            List.fold_left
              (fun held ev ->
                match ev with
                | Acquire { level; mode; line } ->
                  let mode =
                    if mode = "?" then Option.value ~default:"?" subst
                    else mode
                  in
                  let site =
                    {
                      ls_fun = fq;
                      ls_file = f.file;
                      ls_line = line;
                      ls_level = level;
                      ls_mode = mode;
                    }
                  in
                  sites := site :: !sites;
                  let witness = String.concat " -> " path in
                  (* order-graph edges between distinct levels; a site that
                     violates the hierarchy (coarser-after-finer) is reported
                     below and deliberately contributes no edge — the graph
                     records the intended order, violations the deviations,
                     and a pinned deviation must not also read as an
                     unpinnable cycle *)
                  List.iter
                    (fun (hl, _) ->
                      if hl < level && not (Hashtbl.mem edges (hl, level))
                      then Hashtbl.replace edges (hl, level) witness)
                    held;
                  (* out-of-hierarchy: acquiring a coarser level than one
                     already held *)
                  if Held.max_level held > level then begin
                    let hl, hm =
                      List.find (fun (l, _) -> l > level) held
                    in
                    let k = (f.file, line, level, mode, hl, hm) in
                    if not (Hashtbl.mem violations k) then
                      Hashtbl.replace violations k
                        {
                          lv_site = site;
                          lv_held = (hl, hm);
                          lv_kind = `Hierarchy;
                          lv_path = witness;
                        }
                  end;
                  (* conflicting-mode re-acquire at the same level *)
                  (match Held.conflicting_at level mode held with
                  | (hl, hm) :: _ ->
                    let k = (f.file, line, level, mode, hl, hm) in
                    if not (Hashtbl.mem violations k) then
                      Hashtbl.replace violations k
                        {
                          lv_site = site;
                          lv_held = (hl, hm);
                          lv_kind = `Reacquire;
                          lv_path = witness;
                        }
                  | [] -> ());
                  Held.add (level, mode) held
                | Call { callee; mode_arg; line = _ } ->
                  analyze callee held mode_arg path
                | Log _ | Mutate _ -> held)
              held f.events
          in
          Hashtbl.remove in_progress key;
          Hashtbl.replace memo key held;
          held
      end
  in
  List.iter (fun f -> ignore (analyze f.fq_name Held.empty None [])) (functions t);
  (* cycles in the derived level-order graph *)
  let edge_list =
    Hashtbl.fold (fun e w acc -> (e, w) :: acc) edges []
    |> List.sort compare
  in
  let levels =
    List.concat_map (fun ((a, b), _) -> [ a; b ]) edge_list
    |> List.sort_uniq compare
  in
  let cycles = ref [] in
  (* tiny graph (<= 3 nodes): look for any back edge closing a directed
     cycle, reported once per node pair / self loop *)
  List.iter
    (fun ((a, b), w) ->
      if a = b then cycles := ([ a ], w) :: !cycles
      else if a > b && Hashtbl.mem edges (b, a) then
        let w' = Hashtbl.find edges (b, a) in
        cycles := ([ b; a ], w ^ " / " ^ w') :: !cycles)
    edge_list;
  ignore levels;
  {
    lr_sites = List.rev !sites;
    lr_edges = edge_list;
    lr_violations =
      Hashtbl.fold (fun _ v acc -> v :: acc) violations []
      |> List.sort (fun a b ->
             compare
               (a.lv_site.ls_file, a.lv_site.ls_line, a.lv_site.ls_mode)
               (b.lv_site.ls_file, b.lv_site.ls_line, b.lv_site.ls_mode));
    lr_cycles = List.sort compare !cycles;
  }

(* ==== R9: interprocedural WAL-before-page dataflow ====================== *)

type wal_summary = {
  (* first transitive page mutation not preceded by a log call within this
     function, assuming the caller has not logged yet *)
  ws_unlogged : (string * int * string) option;  (* file, line, path *)
  ws_logs : bool;  (* the function performs a logging call on its path *)
}

type wal_violation = {
  wv_entry : string;
  wv_file : string;
  wv_line : int;  (* entry binding line *)
  wv_mut_file : string;
  wv_mut_line : int;
  wv_path : string;
}

type wal_result = {
  wr_summaries : (string * wal_summary) list;
  wr_violations : wal_violation list;
}

let exempt_name name =
  let contains sub =
    let n = String.length name and m = String.length sub in
    let rec at i = i + m <= n && (String.sub name i m = sub || at (i + 1)) in
    at 0
  in
  (* undo and redo restore what the log already holds *)
  contains "undo" || contains "redo" || contains "unlogged"

let wal_analysis t ~entry_files =
  let memo : (string, wal_summary) Hashtbl.t = Hashtbl.create 256 in
  let in_progress : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec summarize fq =
    match Hashtbl.find_opt memo fq with
    | Some s -> s
    | None ->
      if Hashtbl.mem in_progress fq then { ws_unlogged = None; ws_logs = false }
      else begin
        match find t fq with
        | None -> { ws_unlogged = None; ws_logs = false }
        | Some f ->
          Hashtbl.replace in_progress fq ();
          let logged = ref false in
          let first = ref None in
          List.iter
            (fun ev ->
              match ev with
              | Log _ -> logged := true
              | Mutate { what; line } ->
                if (not !logged) && !first = None then
                  first := Some (f.file, line, Fmt.str "%s (%s)" fq what)
              | Call { callee; line; _ } ->
                let s = summarize callee in
                (if (not !logged) && !first = None then
                   match s.ws_unlogged with
                   | Some (mf, ml, mpath) ->
                     first :=
                       Some
                         ( mf,
                           ml,
                           Fmt.str "%s (%s:%d) -> %s" fq f.file line mpath )
                   | None -> ());
                if s.ws_logs then logged := true
              | Acquire _ -> ())
            f.events;
          Hashtbl.remove in_progress fq;
          let s = { ws_unlogged = !first; ws_logs = !logged } in
          Hashtbl.replace memo fq s;
          s
      end
  in
  let entries =
    functions t
    |> List.filter (fun f ->
           List.mem f.file entry_files
           &&
           let name =
             match String.rindex_opt f.fq_name '.' with
             | Some i ->
               String.sub f.fq_name (i + 1)
                 (String.length f.fq_name - i - 1)
             | None -> f.fq_name
           in
           not (exempt_name name))
  in
  let summaries =
    List.map (fun f -> (f.fq_name, summarize f.fq_name)) entries
  in
  let violations =
    List.filter_map
      (fun f ->
        match summarize f.fq_name with
        | { ws_unlogged = Some (mf, ml, path); _ } ->
          (* the syntactic rule R4 already reports mutations in the entry's
             own body; R9 adds only the cross-function paths (depth >= 1) *)
          if String.index_opt path '>' = None then None
          else
            Some
              {
                wv_entry = f.fq_name;
                wv_file = f.file;
                wv_line = f.line;
                wv_mut_file = mf;
                wv_mut_line = ml;
                wv_path = path;
              }
        | _ -> None)
      entries
  in
  { wr_summaries = summaries; wr_violations = violations }
