(** dmx-lint driver: enumerate sources, run {!Lint_rules}, apply the
    {!Lint_baseline}, and render a report. *)

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
  violations : Lint_diag.t list;
      (** what fails the build: strict-rule hits, baselinable hits in files
          whose count exceeds the baseline, and a [baseline] diagnostic for
          each pin above its file's count *)
  notes : string list;
      (** non-fatal: why a file's count exceeds its pin, and the
          regeneration message *)
  checked_files : int;
  globals : Lint_rules.global_entry list;  (** the full R7 inventory *)
  lock : Lint_callgraph.lock_result;  (** R8 sites / edges / violations *)
  wal : Lint_callgraph.wal_result;  (** R9 summaries / violations *)
}

val run :
  ?baseline:string -> ?update_baseline:bool -> config -> report
(** Run every rule. With [baseline], baselinable counts are enforced against
    it (and [update_baseline] rewrites it from the current tree instead of
    enforcing). Without [baseline], every violation is fatal — the fixture
    mode used by the self-tests. *)

val pp_report : Format.formatter -> report -> unit

val pp_analysis : Format.formatter -> report -> unit
(** Render the full concurrency-readiness analysis (R7 inventory, R8 lock
    graph, R9 entry summaries) — the CI build artifact behind
    [dmx_lint --report]. *)

val ok : report -> bool
(** No violations (notes alone don't fail). *)
