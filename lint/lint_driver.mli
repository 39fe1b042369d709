(** dmx-lint driver: enumerate sources, run {!Lint_rules} and the
    {!Lint_callgraph} passes, and render a report. Every rule is strict:
    any violation fails. *)

type config = {
  root : string;  (** repo root the relative paths below resolve against *)
  hot_dirs : string list;
      (** R2/R3 scope: extension + recovery-critical directories *)
  cli_dirs : string list;
      (** R2 (with [exit] allowed) / R3 scope: CLI and bench drivers *)
  smethod_dir : string;  (** R1/R4: storage-method implementations *)
  attach_dir : string;  (** R1: attachment implementations *)
  factory_file : string;  (** R1: the default-factory source *)
  mli_dirs : string list;  (** R5 scope *)
  span_dirs : string list;  (** R6 scope: where Trace spans are opened *)
  global_dirs : string list;  (** R7 scope: global-mutable-state inventory *)
  analysis_dirs : string list;
      (** R8/R9 scope: the whole-program callgraph is built over these *)
  wal_entry_dirs : string list;
      (** R9 entry points: registry mutation slots live here *)
}

val default_config : root:string -> config
(** The real tree: hot dirs [lib/smethod lib/attach lib/txn lib/wal], CLI
    dirs [bin bench], factory [lib/db/db.ml], mli coverage over all of
    [lib], span pairing over [lib] and [bin], global-state inventory and
    callgraph over [lib], R9 entries in [lib/smethod lib/attach]. *)

type report = {
  violations : Lint_diag.t list;  (** every rule's hits, sorted *)
  checked_files : int;
  globals : Lint_rules.global_entry list;  (** the full R7 inventory *)
  lock : Lint_callgraph.lock_result;  (** R8 sites / edges / violations *)
  wal : Lint_callgraph.wal_result;  (** R9 summaries / violations *)
}

val run : config -> report
(** Run every rule. *)

val pp_report : Format.formatter -> report -> unit

val pp_analysis : Format.formatter -> report -> unit
(** Render the full concurrency-readiness analysis (R7 inventory, R8 lock
    graph, R9 entry summaries) — the CI build artifact behind
    [dmx_lint --report]. *)

val ok : report -> bool
(** No violations. *)
