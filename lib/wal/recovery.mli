(** Restart-recovery analysis.

    Reads restart's one decode of the retained log ({!Wal.read_all}: an
    array whose first element holds LSN [base + 1]) and classifies
    transactions into winners (Commit record present) and losers (a record
    but no terminal one). A transaction
    enters the log with its first [Ext] record, so a read-only transaction,
    which logs nothing, is neither. Each loser's worklist is its
    {!uncompensated} chain (catalog records stay, compensated or not: their
    undos are not repeated). Restart (DESIGN.md §15) then repeats history from
    [restart_lsn]: every [Ext] record goes to its extension's redo entry
    and every [Clr] re-runs the undo it records, so the compensated records
    are already reversed when the caller dispatches the worklists to the
    extensions' undo entries.

    When the log holds a checkpoint the scan is seeded from it: analysis
    and redo start at the [Checkpoint] record — every change logged before
    it reached the store when the checkpoint synced — and its active list
    pre-loads the started set, so restart work is bounded by the checkpoint
    interval rather than total log length. A truncated log prefix (base LSN
    > 0) is tolerated — [winners] then only lists transactions that
    committed inside the scan window. *)

type analysis = {
  winners : Log_record.txid list;
      (** committed within the scan window (post-checkpoint) *)
  losers : Log_record.txid list;
  undo_work : (Log_record.txid * Log_record.t list) list;
      (** per loser, uncompensated Ext records newest-first *)
  restart_lsn : Log_record.lsn;
      (** first LSN of the analysis scan and of redo: the last [Checkpoint]
          record, or the first retained record when there is none *)
  scanned : int;  (** records visited by the analysis scan *)
  redo_records : int;
      (** [Ext] and [Clr] records the redo pass replayed; 0 from {!analyze},
          filled in by restart ([Txn_mgr.recover]) *)
  redo_applied : int;
      (** winners' [Ext] records whose redo changed state; 0 from
          {!analyze} *)
}

val uncompensated : Log_record.t list -> Log_record.t list
(** The undo work left on a transaction's chain (newest first, as
    [Txn.t]'s [chain]): its [Ext] records that no [Clr] in it compensates,
    in the chain's order. Rollback, restart and the [dmx_txns] view all use
    this rule. *)

val find :
  base:Log_record.lsn -> Log_record.t array -> Log_record.lsn ->
  Log_record.t option
(** The record at an LSN in a decode of a log with base LSN [base]. *)

val analyze : base:Log_record.lsn -> Log_record.t array -> analysis

val pp : Format.formatter -> analysis -> unit
