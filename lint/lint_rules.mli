(** The repo-specific lint rules (DESIGN.md §7).

    Each rule is a purely syntactic pass over the parsetree
    ([compiler-libs.common]'s [Parse] + [Ast_iterator]) — no typing, no
    build. [file] arguments are root-relative paths used in diagnostics;
    [full_path] is where the source is read from. Every rule is strict: a
    single hit fails the lint. *)

val rule_vector_completeness : string
val rule_error_discipline : string
val rule_exception_swallowing : string
val rule_wal_before_page : string
val rule_mli_coverage : string
val rule_span_pairing : string
val rule_parse_error : string
val rule_global_state : string
val rule_global_state_unsafe : string
val rule_lock_order : string
val rule_lock_cycle : string
val rule_wal_interproc : string

val parse_impl :
  file:string -> full_path:string -> (Parsetree.structure, Lint_diag.t) result
(** Parse one [.ml]; a syntax error becomes a [parse-error] diagnostic. *)

val error_discipline :
  ?allow_exit:bool -> file:string -> Parsetree.structure -> Lint_diag.t list
(** R2: no [failwith] / [invalid_arg] / [exit] / [Obj.magic] /
    [assert false] — extension and hot-path code must report failures as
    [(_, Error.t) result] so the substrate can veto and roll back.
    [allow_exit] relaxes the [exit] ban for CLI driver code ([bin/],
    [bench/]) where a process exit status is the interface. *)

val exception_swallowing :
  file:string -> Parsetree.structure -> Lint_diag.t list
(** R3: flag [try ... with _ -> ...] and [try ... with e -> ()] — catch-all
    handlers that can hide veto/abort signals from the substrate. *)

val wal_before_page :
  file:string -> Parsetree.structure -> Lint_diag.t list
(** R4: in storage-method code, a top-level function that calls a
    [Slotted.*] / [Buffer_pool.alloc] page mutator must also contain a
    [Wal.*] / [Log_record.*] / [Ctx.log] / [log_*] call in the same body
    (syntactic approximation of the WAL-before-page discipline). Functions
    whose name contains [undo] or [unlogged] are exempt: undo applies logged
    images and is itself not re-logged. *)

val vector_completeness :
  root:string ->
  ext_dirs:(string * string) list ->
  factory:string ->
  Lint_diag.t list
(** R1: every module in an extension directory whose [.mli] declares
    [val register] (i.e. packages an [Intf.STORAGE_METHOD] /
    [Intf.ATTACHMENT]) must be registered in the default factory —
    [factory]'s source must mention [<Module>.register]. [ext_dirs] pairs a
    root-relative directory with a human label ("storage method" /
    "attachment"). *)

type global_entry = {
  g_file : string;
  g_line : int;
  g_name : string;
  g_kind : string;
  g_class : string option;  (** [None] = unclassified *)
}

val global_state :
  file:string -> Parsetree.structure -> global_entry list * Lint_diag.t list
(** R7: inventory of module-level mutable state — top-level [ref]s,
    [Hashtbl]/[Buffer]/[Array]/... containers, non-empty array literals,
    lazy cells, and record literals with [mutable] fields. Every such
    binding must carry [[@@dmx.global "ctx-owned" |
    "config-immutable-after-setup" | "UNSAFE"]]; missing or invalid
    classifications fail as [global-state], and an [UNSAFE] entry, state
    every database in the process would share, fails as
    [global-state-unsafe]. *)

val mli_coverage : root:string -> dirs:string list -> Lint_diag.t list
(** R5: every [.ml] under the given root-relative directories has a sibling
    [.mli] — extensions interact through declared interfaces only. *)

val span_pairing : file:string -> Parsetree.structure -> Lint_diag.t list
(** R6: any top-level (or module-nested) binding that calls [Emit.enter]
    must also contain an [Emit.exit] call in the same body. An unclosed
    span corrupts span nesting and self-time attribution; prefer
    [Emit.with_span] / [Ctx.with_span]. Direct [Emit.enter] outside the
    blessed wrappers is only acceptable with explicit pairing. *)

val ml_files_under : root:string -> string -> string list
(** Root-relative paths of the [.ml] files under a root-relative directory
    (recursive, sorted; skips [_build] and dot-directories). *)
