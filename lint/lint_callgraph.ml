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
  | _ -> known_mode a && known_mode b

let modes_leq a b =
  (* mirror of Lock_mode.leq: [b] covers [a]; an unknown mode covers
     nothing and is covered by nothing, so its acquisitions stay checked *)
  match (a, b) with
  | _, "X" | ("IS" | "IX" | "S"), "SIX" | "IS", ("IX" | "S") -> known_mode a
  | _ -> known_mode a && a = b

(* ---- resources ---- *)

(* A lock's resource as the parsetree shows it, read off the constructor
   argument at the acquisition ([Relation desc.rel_id],
   [Record (rid, key)]). Names are resolved by scope: [Param i] is the
   enclosing binding's i-th parameter, [Local] a name bound inside it
   (tagged with its binding site, so a shadowing rebind is another name),
   [Global] a module-level value. Record fields are taken as immutable. The
   R8 analysis substitutes a callee's parameters with its caller's
   arguments, so two acquisitions are provably on one resource only when
   both close to the same term. *)
type term =
  | Param of int
  | Local of string
  | Global of string
  | Const of string
  | Field of term * string
  | Tuple of term list

let all_known ts =
  if List.for_all Option.is_some ts then Some (List.map Option.get ts)
  else None

(* ---- events ---- *)

type event =
  | Acquire of { level : int; mode : string; line : int;
      resource : term option }
  | Log of int
  | Mutate of { what : string; line : int }
  | Call of { callee : string; mode_arg : string option; line : int;
      args : (Asttypes.arg_label * term option) list }

type func = {
  fq_name : string;  (* "Heap.insert" *)
  file : string;  (* root-relative *)
  line : int;
  params : Asttypes.arg_label list;  (* leading parameters, in order *)
  events : event list;  (* source order *)
}

type t = {
  funcs : (string, func) Hashtbl.t;  (* fq_name -> func *)
  order : string list;  (* deterministic iteration order *)
}

(* ---- extraction ---- *)

let line_of_loc (loc : Location.t) = loc.loc_start.Lexing.pos_lnum
let offset_of_loc (loc : Location.t) = loc.loc_start.Lexing.pos_cnum

(* Strip library wrappers and Stdlib so [Dmx_txn.Txn_mgr.log_ext] and
   [Txn_mgr.log_ext] resolve identically. *)
let strip_prefixes parts =
  List.filter
    (fun p ->
      not
        (p = "Stdlib"
        || (String.length p > 4 && String.sub p 0 4 = "Dmx_")))
    parts

let page_mutator parts =
  match strip_prefixes parts with
  | [ "Slotted";
      ("init" | "insert" | "insert_at" | "update" | "delete" | "make_reusable"
      | "set") ]
  | [ "Buffer_pool"; "alloc" ] -> true
  | _ -> false

let logging_call parts =
  match strip_prefixes parts with
  | "Wal" :: _ | "Log_record" :: _ -> true
  | [ "Ctx"; l ] | [ "Txn_mgr"; l ] ->
    String.length l >= 3 && String.sub l 0 3 = "log"
  | _ -> begin
    match List.rev parts with
    | last :: _ -> String.length last >= 3 && String.sub last 0 3 = "log"
    | [] -> false
  end

let exempt_name name =
  let contains sub =
    let n = String.length name and m = String.length sub in
    let rec at i = i + m <= n && (String.sub name i m = sub || at (i + 1)) in
    at 0
  in
  (* undo and redo restore what the log already holds *)
  contains "undo" || contains "redo" || contains "unlogged"

let last_part txt = List.hd (List.rev (Longident.flatten txt))

(* [env] maps the names in scope to [Param]/[Local] terms; a name it lacks is
   module-level. *)
let rec term_of ~modname env (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> begin
    match List.assoc_opt x env with
    | Some t -> Some t
    | None -> Some (Global (modname ^ "." ^ x))
  end
  | Pexp_ident { txt; _ } ->
    Some (Global (String.concat "." (strip_prefixes (Longident.flatten txt))))
  | Pexp_constant (Pconst_integer (s, _)) -> Some (Const s)
  | Pexp_constant (Pconst_string (s, _, _)) -> Some (Const (Fmt.str "%S" s))
  | Pexp_field (r, { txt; _ }) ->
    Option.map (fun t -> Field (t, last_part txt)) (term_of ~modname env r)
  | Pexp_tuple es ->
    Option.map (fun ts -> Tuple ts)
      (all_known (List.map (term_of ~modname env) es))
  | Pexp_constraint (e, _) -> term_of ~modname env e
  | _ -> None

(* The hierarchy level and resource of a [Lock_table] constructor. *)
let rec constr_resource ~modname env (e : expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, arg) ->
    let resource =
      Option.fold ~none:(Some (Const "()")) ~some:(term_of ~modname env) arg
    in
    Option.map (fun level -> (level, resource))
      (match last_part txt with
      | "Db" -> Some 0
      | "Relation" -> Some level_relation
      | "Record" -> Some level_record
      | _ -> None)
  | Pexp_constraint (e, _) -> constr_resource ~modname env e
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

(* The names a pattern binds, with the offset of each binding site. *)
let pattern_vars (p : pattern) =
  let acc = ref [] in
  let super = Ast_iterator.default_iterator in
  let pat it (p : pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt; loc } | Ppat_alias (_, { txt; loc }) ->
      acc := (txt, offset_of_loc loc) :: !acc
    | _ -> ());
    super.pat it p
  in
  let it = { super with pat } in
  it.pat it p;
  !acc

let locals vars =
  List.map (fun (x, off) -> (x, Local (Fmt.str "%s@%d" x off))) vars

(* A binding's leading parameters, their default values and its body; a
   parameter that is one name becomes [Param i], the names of any other
   pattern are locals. *)
let split_params (e : expression) =
  let rec go i labels defaults env (e : expression) =
    match e.pexp_desc with
    | Pexp_fun (lbl, default, pat, body) ->
      let env =
        match pat.ppat_desc with
        | Ppat_var { txt; _ }
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
          (txt, Param i) :: env
        | _ -> locals (pattern_vars pat) @ env
      in
      go (i + 1) (lbl :: labels) (Option.to_list default @ defaults) env body
    | Pexp_newtype (_, body) -> go i labels defaults env body
    | _ -> (List.rev labels, List.rev defaults, env, e)
  in
  go 0 [] [] [] e

(* Collect events of one binding body, in source order. A bare name bound
   in the body (a parameter, a [let], a pattern variable, a record field
   pun) is local and never resolves to the module's top-level binding of
   the same name. *)
let events_of_body ~modname ~local_bindings body =
  let params, defaults, params_env, body = split_params body in
  let raw = ref [] in
  let push off ev = raw := (off, ev) :: !raw in
  let env = ref params_env in
  let bound x = List.mem_assoc x !env in
  let with_vars vars f =
    let saved = !env in
    env := locals vars @ !env;
    f ();
    env := saved
  in
  let super = Ast_iterator.default_iterator in
  let rec expr it (e : expression) =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc; _ }, args) ->
      let parts = Longident.flatten txt in
      (if acquire_fn parts then begin
         (* extract the hierarchy level and resource from the resource
            constructor and the mode from the ~mode argument; a site whose
            resource is a runtime value is invisible here (documented false
            negative — the runtime lockdep covers it) *)
         let mode =
           List.find_map
             (function
               | Asttypes.Labelled "mode", a -> mode_of_expr a | _ -> None)
             args
           |> Option.value ~default:"?"
         in
         match
           List.find_map (fun (_, a) -> constr_resource ~modname !env a) args
         with
         | Some (level, resource) ->
           push (offset_of_loc pexp_loc)
             (Acquire { level; mode; resource; line = line_of_loc pexp_loc })
         | None -> ()
       end
       else if page_mutator parts then
         push (offset_of_loc pexp_loc)
           (Mutate
              { what = String.concat "." parts; line = line_of_loc pexp_loc })
       else if logging_call parts then
         push (offset_of_loc pexp_loc) (Log (line_of_loc pexp_loc))
       else begin
         (* a call that may resolve to a known binding; remember a Lock_mode
            constant argument so one-line lock helpers can be specialized,
            and each argument's term for the callee's parameters *)
         let mode_arg = List.find_map (fun (_, a) -> mode_of_expr a) args in
         let callee =
           match strip_prefixes parts with
           | [ f ] when bound f -> None
           | [ f ] when Hashtbl.mem local_bindings f -> Some (modname ^ "." ^ f)
           | ps -> begin
             match List.rev ps with
             | f :: m :: _ -> Some (m ^ "." ^ f)
             | _ -> None
           end
         in
         match callee with
         | Some callee ->
           let args =
             List.map (fun (lbl, a) -> (lbl, term_of ~modname !env a)) args
           in
           push (offset_of_loc pexp_loc)
             (Call { callee; mode_arg; args; line = line_of_loc pexp_loc })
         | None -> ()
       end);
      (* recurse into the arguments only — revisiting the function ident
         would double-count the site as a bare reference *)
      List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
    | Pexp_let (rec_flag, vbs, body) ->
      let vars = List.concat_map (fun vb -> pattern_vars vb.pvb_pat) vbs in
      let rhs () = List.iter (fun vb -> it.expr it vb.pvb_expr) vbs in
      if rec_flag = Asttypes.Recursive then
        with_vars vars (fun () ->
            rhs ();
            it.expr it body)
      else begin
        rhs ();
        with_vars vars (fun () -> it.expr it body)
      end
    | Pexp_fun (_, default, pat, body) ->
      Option.iter (it.expr it) default;
      with_vars (pattern_vars pat) (fun () -> it.expr it body)
    | Pexp_function cases -> cases_ it cases
    | Pexp_match (scrutinee, cases) | Pexp_try (scrutinee, cases) ->
      it.expr it scrutinee;
      cases_ it cases
    | Pexp_letop { let_; ands; body } ->
      List.iter (fun b -> it.expr it b.pbop_exp) (let_ :: ands);
      with_vars
        (List.concat_map (fun b -> pattern_vars b.pbop_pat) (let_ :: ands))
        (fun () -> it.expr it body)
    | Pexp_for (pat, lo, hi, _, body) ->
      it.expr it lo;
      it.expr it hi;
      with_vars (pattern_vars pat) (fun () -> it.expr it body)
    | _ -> expr_other it e
  and cases_ it cases =
    List.iter
      (fun c ->
        with_vars (pattern_vars c.pc_lhs) (fun () ->
            Option.iter (it.expr it) c.pc_guard;
            it.expr it c.pc_rhs))
      cases
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
        let line = line_of_loc e.pexp_loc in
        let call callee =
          push (offset_of_loc e.pexp_loc)
            (Call { callee; mode_arg = None; args = []; line })
        in
        match parts with
        | [ f ] when Hashtbl.mem local_bindings f && not (bound f) ->
          call (modname ^ "." ^ f)
        | f :: _ :: _ -> begin
          match List.rev parts with
          | g :: m :: _ when f <> g -> call (m ^ "." ^ g)
          | _ -> ()
        end
        | _ -> ()
      end
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  List.iter (it.expr it) defaults;
  it.expr it body;
  ( params,
    List.sort (fun (a, _) (b, _) -> Int.compare a b) !raw |> List.map snd )

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

let bindings structure = List.rev (value_bindings [] structure)

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
        let bindings = bindings structure in
        let local = Hashtbl.create 32 in
        List.iter (fun (n, _, _) -> Hashtbl.replace local n ()) bindings;
        List.iter
          (fun (name, loc, body) ->
            let fq_name = modname ^ "." ^ name in
            let params, events =
              events_of_body ~modname ~local_bindings:local body
            in
            let f =
              { fq_name; file; line = line_of_loc loc; params; events }
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

(* Held-lock summaries are small sets of (level, mode, resource); the
   analysis is context-sensitive in that summary, memoized on (function,
   held, mode substitution for '?' acquires, the terms its parameters are
   bound to, scope). *)

module Held = struct
  type t = (int * string * term option) list (* sorted, deduped *)

  let empty : t = []
  let add e (t : t) = List.sort_uniq compare (e :: t)
  let max_level t = List.fold_left (fun acc (l, _, _) -> max acc l) (-1) t

  (* a lock the path holds on the same resource, in a mode that covers the
     request: the lock table grants it without a wait *)
  let covers lvl mode res t =
    res <> None
    && List.exists (fun (l, m, r) -> l = lvl && r = res && modes_leq mode m) t

  (* same-level locks whose mode conflicts with the request. At record
     level a held mode that covers the request is left out: on the same
     record it is a grant without a wait, on another record it is an order
     between two keys, which only the data decides and which the waits-for
     detector resolves (lockdep leaves record orders out too). A mode that
     does not cover it may be a conversion of that very record. *)
  let conflicting_at lvl mode t =
    List.filter
      (fun (l, m, _) ->
        l = lvl && modes_conflict m mode
        && not (lvl = level_record && modes_leq mode m))
      t
end

(* A term of the function being analysed, closed over the terms its
   parameters are bound to ([env]). Its own locals are named only when it
   is analysed as an entry ([scope]); reached through a call, a local is a
   fresh value per activation, so it is unknown. *)
let rec close ~env ~scope t =
  match t with
  | Param i -> Option.join (List.nth_opt env i)
  | Local id -> Option.map (fun fq -> Local (fq ^ ":" ^ id)) scope
  | Global _ | Const _ -> Some t
  | Field (t, f) -> Option.map (fun t -> Field (t, f)) (close ~env ~scope t)
  | Tuple ts ->
    Option.map
      (fun ts -> Tuple ts)
      (all_known (List.map (close ~env ~scope) ts))

(* Arguments are bound only to terms this shallow, so a recursion that
   passes [node.parent] on meets finitely many contexts. *)
let rec depth = function
  | Field (t, _) -> 1 + depth t
  | Tuple ts -> 1 + List.fold_left (fun d t -> max d (depth t)) 0 ts
  | Param _ | Local _ | Global _ | Const _ -> 0

(* The callee's parameters bound to the caller's (closed) argument terms:
   labelled arguments by label, the others in order. *)
let bind_args (callee : func) args =
  let positional =
    ref
      (List.filter_map
         (fun (l, t) -> if l = Asttypes.Nolabel then Some t else None)
         args)
  in
  List.map
    (fun (lbl : Asttypes.arg_label) ->
      match lbl with
      | Nolabel -> begin
        match !positional with
        | t :: rest ->
          positional := rest;
          t
        | [] -> None
      end
      | Labelled _ -> Option.join (List.assoc_opt lbl args)
      | Optional _ -> None)
    callee.params

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
  let memo = Hashtbl.create 256 in
  let in_progress = Hashtbl.create 64 in
  (* [path] is entry-first, used only for witness strings. *)
  let rec analyze fq held subst env scope path =
    let key = (fq, held, subst, env, scope) in
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
                | Acquire { level; mode; resource; line } ->
                  let mode =
                    if mode = "?" then Option.value ~default:"?" subst
                    else mode
                  in
                  let res = Option.bind resource (close ~env ~scope) in
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
                  (* a request covered by the path's own lock on the same
                     resource is granted without a wait, so it can neither
                     invert the hierarchy nor deadlock; any other resource
                     may be a different one *)
                  if Held.covers level mode res held then held
                  else begin
                    let witness = String.concat " -> " path in
                    (* order-graph edges between distinct levels; a site
                       that violates the hierarchy (coarser-after-finer) is
                       reported below and deliberately contributes no edge —
                       the graph records the intended order, violations the
                       deviations, and a deviation must not also read as a
                       cycle *)
                    List.iter
                      (fun (hl, _, _) ->
                        if hl < level && not (Hashtbl.mem edges (hl, level))
                        then Hashtbl.replace edges (hl, level) witness)
                      held;
                    let report kind (hl, hm, _) =
                      let k = (f.file, line, level, mode, hl, hm) in
                      if not (Hashtbl.mem violations k) then
                        Hashtbl.replace violations k
                          {
                            lv_site = site;
                            lv_held = (hl, hm);
                            lv_kind = kind;
                            lv_path = witness;
                          }
                    in
                    (* out-of-hierarchy: acquiring a coarser level than one
                       already held *)
                    if Held.max_level held > level then
                      report `Hierarchy
                        (List.find (fun (l, _, _) -> l > level) held);
                    (* conflicting-mode re-acquire at the same level *)
                    (match Held.conflicting_at level mode held with
                    | h :: _ -> report `Reacquire h
                    | [] -> ());
                    Held.add (level, mode, res) held
                  end
                | Call { callee; mode_arg; args; line = _ } -> begin
                  match find t callee with
                  | None -> held
                  | Some c ->
                    let args =
                      List.map
                        (fun (l, a) ->
                          match Option.bind a (close ~env ~scope) with
                          | Some t when depth t <= 4 -> (l, Some t)
                          | _ -> (l, None))
                        args
                    in
                    analyze callee held mode_arg (bind_args c args) None path
                end
                | Log _ | Mutate _ -> held)
              held f.events
          in
          Hashtbl.remove in_progress key;
          Hashtbl.replace memo key held;
          held
      end
  in
  (* an entry's parameters and locals are names of its own *)
  List.iter
    (fun f ->
      let env =
        List.mapi
          (fun i _ -> Some (Local (Fmt.str "%s:%d" f.fq_name i)))
          f.params
      in
      ignore (analyze f.fq_name Held.empty None env (Some f.fq_name) []))
    (functions t);
  (* cycles in the derived level-order graph *)
  let edge_list =
    Hashtbl.fold (fun e w acc -> (e, w) :: acc) edges []
    |> List.sort compare
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
  {
    lr_sites = List.sort_uniq compare !sites;
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

let base_name fq =
  match String.rindex_opt fq '.' with
  | Some i -> String.sub fq (i + 1) (String.length fq - i - 1)
  | None -> fq

let fresh_page what =
  strip_prefixes (String.split_on_char '.' what) = [ "Buffer_pool"; "alloc" ]

(* Under an extension's DDL entry, [Buffer_pool.alloc] hands out a page of
   the structure being created: nothing reaches it before the DDL commits,
   that commit forces the pool, and an abort drops the descriptor. So
   [ddl] summaries do not count it as a mutation; every other mutation
   still counts. *)
let wal_analysis t ~entry_files ~ddl_entries =
  let memo : (string * bool, wal_summary) Hashtbl.t = Hashtbl.create 256 in
  let in_progress : (string * bool, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec summarize ~ddl fq =
    match Hashtbl.find_opt memo (fq, ddl) with
    | Some s -> s
    | None ->
      if Hashtbl.mem in_progress (fq, ddl) then
        { ws_unlogged = None; ws_logs = false }
      else begin
        match find t fq with
        | None -> { ws_unlogged = None; ws_logs = false }
        | Some f ->
          Hashtbl.replace in_progress (fq, ddl) ();
          let logged = ref false in
          let first = ref None in
          List.iter
            (fun ev ->
              match ev with
              | Log _ -> logged := true
              | Mutate { what; _ } when ddl && fresh_page what -> ()
              | Mutate { what; line } ->
                if (not !logged) && !first = None then
                  first := Some (f.file, line, Fmt.str "%s (%s)" fq what)
              | Call { callee; line; _ } ->
                let s = summarize ~ddl callee in
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
          Hashtbl.remove in_progress (fq, ddl);
          let s = { ws_unlogged = !first; ws_logs = !logged } in
          Hashtbl.replace memo (fq, ddl) s;
          s
      end
  in
  let entries =
    functions t
    |> List.filter (fun f ->
           List.mem f.file entry_files && not (exempt_name (base_name f.fq_name)))
  in
  let summarize_entry f =
    let ddl =
      List.exists
        (fun (dir, name) ->
          String.starts_with ~prefix:(dir ^ "/") f.file
          && base_name f.fq_name = name)
        ddl_entries
    in
    summarize ~ddl f.fq_name
  in
  let summaries = List.map (fun f -> (f.fq_name, summarize_entry f)) entries in
  let violations =
    List.filter_map
      (fun f ->
        match summarize_entry f with
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
