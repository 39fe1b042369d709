(** Transaction manager: commit, abort, savepoints and restart recovery.

    Recovery policy (DESIGN.md §6, §15): steal + no-force, with logical,
    log-driven redo and undo. Commit drains the [Before_prepare] deferred
    queue (which may still veto), saves the catalog snapshot if dirty,
    appends its [Commit] record and fsyncs the log once, then drains
    [On_commit]; a read-only transaction (no [Ext] record, clean catalog)
    writes no record and no flush, and a transaction that logged a
    [Catalog] record forces the pool first. Pages reach disk only through
    eviction and checkpoints. Abort and partial rollback walk the chain of
    records the transaction carries ([Txn.chain]) newest-first and
    dispatch each uncompensated [Ext] record to the owning extension's undo
    entry point, appending a [Clr] after each undo; a savepoint is an
    in-memory mark and logs nothing, and an abort of a transaction that
    logged nothing appends no [Abort]. Restart repeats history through the extensions' redo entries,
    then undoes the losers' uncompensated records.

    Extension redo and undo routines must be *testable*: repeating a change
    the store already holds, or undoing one it never received, is a no-op
    (a change image checks the state it expects). *)

open Dmx_wal

type t

exception Undo_dispatch_missing

val create :
  wal:Wal.t -> locks:Dmx_lock.Lock_table.t -> ?attrs:Tmap.t -> unit -> t
(** [attrs] is the extension state the database starts with ({!attr}). *)

val wal : t -> Wal.t
val locks : t -> Dmx_lock.Lock_table.t

val set_undo_dispatch :
  t -> (Txn.t -> lsn:Log_record.lsn -> Log_record.t -> unit) -> unit
(** Installed by the extension architecture: routes an [Ext] log record to the
    owning extension's undo routine. [lsn] is the LSN of the [Clr] that
    records the undo, appended as soon as the routine returns. *)

val set_redo_dispatch :
  t ->
  (Txn.t -> find:(Log_record.lsn -> Log_record.t option) -> Log_record.t ->
   unit) ->
  unit
(** Installed by the extension architecture: restart's redo pass hands it
    every [Ext] record (for the owning extension's redo entry) and every
    [Clr] (to repeat the undo it records, of the record [find] returns). *)

val set_catalog_hook : t -> (force:bool -> unit) -> unit
(** Installed by the services layer: save the catalog snapshot if the
    catalog changed since the last one; with [force], first write every
    dirty page and sync the store. Only a transaction that logged a
    [Catalog] record (DDL) runs it: its commit with [force], before the
    [Commit] record; its abort without, before the [Abort]. Restart runs
    it without [force] after undoing the losers, before their [Abort]s.
    A DML commit never runs it. *)

val set_commit_observer : t -> (unit -> unit) -> unit
(** Installed by the services layer: called after every commit completes
    (records fsynced, transaction deregistered, deferred actions run). The
    checkpoint policy hooks here to take a checkpoint every N records or
    bytes, between transactions' operations. *)

val set_attr : t -> 'a Tmap.key -> 'a -> unit
val attr : t -> 'a Tmap.key -> 'a option
(** Extension state of this database, under typed keys, as {!Txn.attr} is
    a transaction's: what an extension keeps between transactions (a
    main-memory store, a foreign server's directory, the sanitizer's lock
    graph) lives here, never in a module-level table, so two databases in
    one process share none of it and a reopened database starts empty. *)

val attr_or_init : t -> 'a Tmap.key -> (unit -> 'a) -> 'a
(** {!attr}, first setting the key to [init ()] when it has no value. *)

val next_txid : t -> Log_record.txid
(** The id the next {!begin_txn} takes; a checkpoint records it. Starts at
    {!Wal.next_txid} of the log. *)

val begin_txn : t -> Txn.t
(** Appends nothing: a transaction enters the log with its first
    {!log_ext}. *)

val find_txn : t -> int -> Txn.t option
val active_txns : t -> Txn.t list

val log_ext : t -> Txn.t -> source:Log_record.source -> rel_id:int ->
  data:string -> Log_record.lsn
(** Common service used by extensions to log an undoable operation. *)

val commit : t -> Txn.t -> unit
(** Raises whatever a [Before_prepare] action raises — in that case the
    transaction has been rolled back and aborted before the exception
    propagates. One log fsync for a transaction that logged a change, none
    for a read-only one; no data sync unless it logged a [Catalog]
    record. *)

val abort : t -> Txn.t -> unit

val mark : t -> Txn.t -> Txn.mark
(** Take an unnamed rollback point: the log's current end and the positions
    of the open key-sequential scans. Appends nothing to the log. *)

val rollback_to_mark : t -> Txn.t -> Txn.mark -> unit
(** Partial rollback: undo the transaction's records logged after the mark,
    newest first, then restore the captured scan positions; the transaction
    stays active. Named savepoints and the per-statement atomicity of
    [Relation] both roll back through here. *)

val savepoint : t -> Txn.t -> string -> unit
(** Establish (or re-establish) a named {!mark}. Appends nothing to the
    log. *)

val rollback_to : t -> Txn.t -> string -> unit
(** {!rollback_to_mark} for the named savepoint. The savepoint remains
    established; those established after it are gone. Raises [Not_found]
    for an unknown savepoint name. *)

val recover : ?grow:(Log_record.t array -> unit) -> t -> Recovery.analysis
(** Restart recovery: [grow] on the retained log, decoded once (the
    services layer grows the page store to every page a record names),
    analysis from the last [Checkpoint] record (its
    active list seeds the started set), the undo of the losers' catalog
    records (so redo sees the committed descriptors), a redo pass that
    repeats history from there (every [Ext] record through its extension's
    redo entry, every [Clr] by re-running its undo), the undo of every
    loser's other uncompensated records, the catalog snapshot, their
    [Abort]s and one log flush. The caller ends restart with a checkpoint.
    Returns the analysis with the redo counts filled in. Must run before
    new transactions start. *)

val stats_undo_count : t -> int
(** Total Ext records undone since creation (benches). *)

val note_applied : t -> unit
(** A redo entry point changed state (behind [Ctx.applied]); restart counts
    these for winners' records as [redo_applied]. *)
