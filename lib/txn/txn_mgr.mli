(** Transaction manager: commit, abort, savepoints and restart recovery.

    Recovery policy (see DESIGN.md §3): steal + force-at-commit with logical,
    log-driven undo. Commit drains the [Before_prepare] deferred queue (which
    may still veto), forces the log and all dirty pages, hardens the commit
    record, then drains [On_commit]. Abort and partial rollback walk the
    transaction's log chain newest-first and dispatch each [Ext] record to the
    owning extension's undo entry point via the dispatcher installed by the
    extension architecture, logging a [Clr] per undone record. Restart
    recovery analyses the log and gives losers the same treatment.

    Because a crash can strike before the force step, extension undo routines
    must be *testable*: undoing an operation whose effect never reached disk
    must be a no-op (e.g. undo-insert is delete-if-present). *)

open Dmx_wal

type t

exception Undo_dispatch_missing

val create : wal:Wal.t -> locks:Dmx_lock.Lock_table.t -> unit -> t
val wal : t -> Wal.t
val locks : t -> Dmx_lock.Lock_table.t

val set_undo_dispatch : t -> (Txn.t -> Log_record.t -> unit) -> unit
(** Installed by the extension architecture: routes an [Ext] log record to the
    owning extension's undo routine. *)

val set_force_hook : t -> (unit -> unit) -> unit
(** Installed by the storage layer: flush all dirty pages (the force step). *)

val set_commit_observer : t -> (unit -> unit) -> unit
(** Installed by the services layer: called after every commit completes
    (records fsynced, transaction deregistered, deferred actions run). The
    checkpoint policy hooks here to trigger a fuzzy checkpoint every N
    records/bytes without quiescing. *)

val begin_txn : t -> Txn.t
val find_txn : t -> int -> Txn.t option
val active_txns : t -> Txn.t list

val log_ext : t -> Txn.t -> source:Log_record.source -> rel_id:int ->
  data:string -> Log_record.lsn
(** Common service used by extensions to log an undoable operation. *)

val log_ext_many : t -> Txn.t -> source:Log_record.source -> rel_id:int ->
  datas:string list -> Log_record.lsn list
(** Batched {!log_ext}: one activity check, contiguous appends (bulk paths). *)

val commit : t -> Txn.t -> unit
(** Raises whatever a [Before_prepare] action raises — in that case the
    transaction has been rolled back and aborted before the exception
    propagates. *)

val abort : t -> Txn.t -> unit

val savepoint : t -> Txn.t -> string -> unit
(** Establish (or re-establish) a rollback point: records the log position and
    captures the positions of open key-sequential scans. *)

val rollback_to : t -> Txn.t -> string -> unit
(** Partial rollback: undo back to the savepoint, restore scan positions; the
    transaction stays active and the savepoint remains established. Raises
    [Not_found] for an unknown savepoint name. *)

val recover : t -> Recovery.analysis
(** Restart recovery: undo every loser transaction, log their [Abort]s, force
    the result. Returns the analysis for reporting. Must run before new
    transactions start. *)

val stats_undo_count : t -> int
(** Total Ext records undone since creation (benches). *)
