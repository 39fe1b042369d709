(** Approximate whole-program model over the analysis roots, shared by the
    interprocedural passes R8 (lock order) and R9 (WAL-before-page).

    Calls are resolved per-[Longident]: [Mod.f] resolves to binding [f] of
    [mod.ml] when such a file is in scope, a bare [f] to the enclosing
    module, unless a parameter, a [let], a pattern variable or a punned
    record field of the body binds that name. Registry procedure-vector
    dispatch, first-class functions and functors are not resolved —
    DESIGN.md §12 lists the resulting false-negative classes; the runtime
    lockdep covers them dynamically. *)

type t

val level_name : int -> string

val modes_conflict : string -> string -> bool
(** [Dmx_lock.Lock_mode.compatible], negated, on the modes' names; an
    unknown name conflicts with nothing. *)

val modes_leq : string -> string -> bool
(** [Dmx_lock.Lock_mode.leq] on the modes' names: the second covers the
    first. An unknown name covers nothing and is covered by nothing. *)

val page_mutator : string list -> bool
(** A call path that writes a page: a [Slotted] write or
    [Buffer_pool.alloc], library wrappers stripped. *)

val logging_call : string list -> bool
(** A call path that logs: [Wal.*], [Log_record.*], or a name starting
    with [log]. *)

val exempt_name : string -> bool
(** [*undo*], [*redo*] and [*unlogged*] bindings restore what the log
    already holds, so the WAL rules skip them. *)

val bindings :
  Parsetree.structure -> (string * Location.t * Parsetree.expression) list
(** Top-level and module-nested value bindings, in source order. *)

val load :
  root:string ->
  dirs:string list ->
  parse_impl:
    (file:string ->
    full_path:string ->
    (Parsetree.structure, Lint_diag.t) result) ->
  ml_files_under:(root:string -> string -> string list) ->
  t
(** Parse every [.ml] under [dirs] and build the function table. Files that
    fail to parse are skipped here (the per-file passes report them). *)

(** {2 R8: static lock-order analysis} *)

type lock_site = {
  ls_fun : string;
  ls_file : string;
  ls_line : int;
  ls_level : int;
  ls_mode : string;
}

type lock_violation = {
  lv_site : lock_site;
  lv_held : int * string;
  lv_kind : [ `Hierarchy | `Reacquire ];
  lv_path : string;  (** witness call path, entry-first *)
}

type lock_result = {
  lr_sites : lock_site list;
  lr_edges : ((int * int) * string) list;
  lr_violations : lock_violation list;
  lr_cycles : (int list * string) list;
}

val lock_analysis : t -> lock_result
(** Propagate lock-held sets, each lock with its resource term, from every
    binding taken as an entry point (DESIGN.md §12). An acquisition is not
    checked when the path provably holds the same resource in a mode that
    covers it ({!modes_leq}). Otherwise a coarser level after a finer one,
    and a same-level conflicting re-acquire, are violations whatever
    resource the held lock is on, except that at record level a covering
    held mode is a key order, not a re-acquire. Re-acquires do not become
    graph edges (they would read as self-loop cycles). *)

(** {2 R9: interprocedural WAL-before-page} *)

type wal_summary = {
  ws_unlogged : (string * int * string) option;
  ws_logs : bool;
}

type wal_violation = {
  wv_entry : string;
  wv_file : string;
  wv_line : int;
  wv_mut_file : string;
  wv_mut_line : int;
  wv_path : string;
}

type wal_result = {
  wr_summaries : (string * wal_summary) list;
  wr_violations : wal_violation list;
}

val wal_analysis :
  t -> entry_files:string list -> ddl_entries:(string * string) list ->
  wal_result
(** For every top-level binding of [entry_files] (minus [*undo*] /
    [*unlogged*] names), prove each path to a page mutator passes a logging
    call first. Violations are only reported when the mutation is reached
    through a call edge — in-body mutations are R4's (syntactic) job.

    [ddl_entries] pairs a root-relative directory with the name of its
    extensions' DDL entry (a storage method's [create], an attachment's
    [create_instance]). Under such an entry [Buffer_pool.alloc] is not an
    unlogged mutation: the fresh page belongs to the structure being
    created, nothing reaches it before the DDL commits, that commit forces
    the pool, and an abort drops the descriptor. Every other mutation under
    those entries, and [alloc] under any other entry, is still reported. *)
