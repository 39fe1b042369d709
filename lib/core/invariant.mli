(** Runtime sanitizer for the extension-architecture invariants.

    The static pass ([dmx-lint], DESIGN.md §7) enforces what is visible in
    the source; this module checks at run time what is not: buffer-pool pins
    must balance by transaction end, WAL LSNs must be appended monotonically,
    and no dispatch may happen before the registry is frozen.

    All checks are gated on [DMX_SANITIZE=1] (or [true]/[yes]/[on]) in the
    environment and compile down to one branch when disabled, so the hooks
    stay in production builds. A failed check raises {!Invariant_violation}
    with a formatted report — deliberately an exception, not an [Error.t]:
    an invariant violation means the substrate itself is broken and must not
    be swallowed by extension error handling. *)

exception Invariant_violation of string

val enabled : unit -> bool
(** True when [DMX_SANITIZE] enables the sanitizer (cached after first read)
    or a test override is in force. *)

val set_enabled_for_testing : bool option -> unit
(** [Some b] forces the sanitizer on/off regardless of the environment;
    [None] returns to the environment setting. Tests only. *)

val check_pin_balance : at:string -> Dmx_page.Buffer_pool.t -> unit
(** Raise unless every buffer-pool frame is unpinned. Called at transaction
    boundaries ([Services.commit]/[abort]) — pins are operation-scoped, so a
    surviving pin is a leak that will eventually wedge eviction. [at] names
    the boundary for the report. *)

val check_scan_balance : at:string -> Dmx_txn.Txn.t -> unit
(** Raise unless every scan registered on the transaction was closed. Called
    at commit ([Services.commit]) {e before} the transaction manager
    force-closes survivors — a scan still registered there means some
    operator opened a scan it never closed. Abort is deliberately exempt:
    aborting with scans open is the normal error path, and
    [Txn.close_all_scans] reclaims them. [at] names the boundary for the
    report. *)

val lsn_observer : source:string -> unit -> Dmx_wal.Log_record.lsn -> unit
(** A fresh monotonicity monitor for one log: feeding it a non-increasing
    LSN raises. [Services.setup] installs one per WAL via
    {!Dmx_wal.Wal.set_append_observer}. *)

val check_span_balance : at:string -> unit
(** Raise unless the trace-span stack is empty. Called at transaction
    boundaries when both the sanitizer and tracing are enabled — an open span
    there means some operation entered a span it never exited, which would
    mis-parent every later span. *)

val check_undo_above_base :
  txid:int -> lsn:Dmx_wal.Log_record.lsn -> base:Dmx_wal.Log_record.lsn -> unit
(** Sanitizer check run before dispatching an undo record: no undo may
    reference an LSN at or below the log's truncation point ([base]); a
    violation means checkpoint truncation dropped part of a live
    transaction's undo chain. No-op when the sanitizer is off or the log has
    never been truncated. *)

val check_frozen_for_dispatch : op:string -> unit
(** Raise when a relation modification is dispatched through the procedure
    vectors while the registry is still open for registration — extensions
    must be bound "at the factory", before the database opens. *)

(** {2 Lockdep: runtime lock-order checking}

    The dynamic complement of the static lock-order pass (R8): per-txn lock
    grants are checked for hierarchy coverage, and relation-level
    acquisition-order pairs accumulate in an order graph; the first grant
    that completes a conflicting-mode inversion raises. Record locks
    participate only in the hierarchy check — key-level collisions are
    data-dependent and belong to the waits-for deadlock detector. Each
    database has its own graph (relation ids are per database), installed
    on its lock table by [Services.setup] through {!install_lockdep}. *)

type lockdep
(** One database's held sets, order graph and nascent marks. *)

val lockdep : unit -> lockdep
(** An empty graph. *)

val lockdep_grant :
  lockdep -> txid:int -> Dmx_lock.Lock_table.resource ->
  Dmx_lock.Lock_mode.t -> unit
(** Record one observed grant; raises on a hierarchy violation or a
    conflicting-mode order inversion. No-op (and allocation-free) when the
    sanitizer is disabled. *)

val lockdep_release : lockdep -> txid:int -> unit
(** Forget the transaction's held set and nascent marks (commit/abort). *)

val install_lockdep : Dmx_txn.Txn_mgr.t -> unit
(** Give the database a fresh {!lockdep}, kept in its extension state, and
    observe every grant and release of its lock table with it.
    [Services.setup] calls this when the sanitizer is on at mount time, so
    the disabled grant path stays allocation-free. *)

val lockdep_mark_nascent :
  Dmx_txn.Txn_mgr.t -> txid:int -> rel_id:int -> unit
(** Exempt a relation created by the still-open transaction from the
    database's order graph: no concurrent transaction can reference it
    before commit, so its acquisition order cannot invert with anyone.
    [Ddl.create_relation] marks the fresh relation id. No-op when the
    database has no graph. *)
