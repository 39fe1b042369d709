(** The write-ahead log manager.

    An append-only, LSN-addressed log shared by the transaction manager and
    every extension. Extensions append [Ext] records through the common
    services context; the rollback/abort/restart drivers dispatch their
    undo and redo to the owning extension.

    LSNs are 1-based sequence numbers. Both backends frame a record at
    append, laid out as the file is: a memory log keeps its frames in a
    buffer, a file log buffers them until {!flush} (the buffer-pool hook
    and the commit protocol call it). The log keeps no decoded record: a
    transaction carries its own chain for rollback, and restart decodes the
    retained log once ({!read_all}).

    The file is kept zero-filled and synced from the log's end to a
    1 MB step past it, so a flush overwrites blocks that exist and its
    fsync journals no new file size. On open, the log's end is the first
    frame that fails to read (a length of 0 or less, an overrun, a bad
    checksum); whatever lies past it is zeroed before the first append.

    Checkpoint truncation ({!truncate_before}) drops a prefix of the log
    without renumbering: the log remembers a {!base_lsn} (persisted in the
    file header) and every surviving LSN stays valid. *)

type t

(** Where a file rewrite-and-rename truncation is, for crash-injection
    observers: [Trunc_begin] before any file mutation, [Trunc_rename] after
    the temp log is written and fsynced but before it replaces the live file,
    [Trunc_done] after the switch completes. *)
type truncate_phase = Trunc_begin | Trunc_rename | Trunc_done

val in_memory : unit -> t
val open_file : string -> t
(** Opens (creating if needed) a log file, walking its frames up to the
    first that fails to read. Bytes past that end that are not zeros are
    zeroed, a file with no zero tail (a fresh log, or one written before
    logs were preallocated) is extended by one, and the file is synced. A
    file whose first 8 bytes are not the [DMXWAL03] magic is a fresh log
    when no byte at or past offset 16 is nonzero (an empty file, or a torn
    header with nothing behind it). Any other such file raises [Sys_error]
    naming the path, and is left as it is: it is not a log, or a log in
    another [DMXWAL..] record format ([DMXWAL01], or [DMXWAL02], which
    opened every transaction with a record of its own). *)

val append : t -> Log_record.txid -> Log_record.kind -> Log_record.lsn

val set_append_observer : t -> (Log_record.lsn -> unit) -> unit
(** Install a callback invoked with the LSN of every appended record
    (default: none). The common-services layer points this at the runtime
    sanitizer's LSN-monotonicity check ([Invariant.lsn_observer]); the
    callback may raise to veto the append's caller. *)

val set_truncate_observer : t -> (truncate_phase -> unit) -> unit
(** Install a callback fired at each {!truncate_phase} of
    {!truncate_before} (default: none). The chaos harness points this at a
    crash injector; the callback may raise, in which case the truncation is
    abandoned with the old log intact (a temp file may be left behind and is
    removed on the next {!open_file}). *)

val last_lsn : t -> Log_record.lsn
val flushed_lsn : t -> Log_record.lsn

val base_lsn : t -> Log_record.lsn
(** LSNs at or below this have been truncated away; 0 for a full log. The
    first readable record is [base_lsn + 1]. *)

val last_checkpoint_lsn : t -> Log_record.lsn
(** LSN of the newest [Checkpoint] record in the log (tracked at append
    and restored by {!open_file}'s replay); 0 when none. *)

val next_txid : t -> Log_record.txid
(** Above every txid the log has carried since it was opened, and at least
    the newest checkpoint's [next_txid]; 1 for an empty log. *)

val record_count : t -> int

val appended_bytes : t -> int
(** Monotone total of framed bytes ever appended to this log instance —
    unlike the file size it never decreases on truncation, so checkpoint
    policy can meter on it. *)

val truncations : t -> int
(** Number of {!truncate_before} calls that dropped at least one record. *)

val truncated_bytes : t -> int
(** Cumulative framed bytes truncation dropped on this log instance. *)

val truncate_before : t -> Log_record.lsn -> int * int
(** [truncate_before t cut] drops every record with LSN < [cut] and returns
    [(records_dropped, bytes_freed)]. The cut is clamped to the covered
    range, so an out-of-range cut is a no-op rather than an error. Surviving
    LSNs are unchanged ({!base_lsn} advances). The retained frames are
    found by walking frame lengths and kept as they are. A file log writes
    them, pending ones included, behind an updated header and ahead of a
    zero tail into a temp file, fsyncs it once, renames it over the log
    and fsyncs the directory ({!Durable.replace}) — a crash at any point leaves either the old or the new log intact,
    and truncation never weakens durability. The caller is responsible for
    cutting only below the undo horizon (no active transaction's first LSN,
    and not the checkpoint restart starts from, may be dropped). *)

val flush : ?upto:Log_record.lsn -> t -> unit
(** Harden records up to [upto] (default: all). All pending records are
    framed into one contiguous write — one write syscall per flush however
    many records are buffered — followed by a single fsync. A flush whose
    bytes would cross the zero tail first zero-fills to the next step and
    syncs that. Bytes an earlier flush wrote but failed to fsync are
    fsynced by the next flush, even when nothing new is pending. *)

val end_offset : t -> int
(** The log's logical end in its file: the header and every frame written
    (for a memory log, the length of its buffer). *)

val allocated : t -> int
(** The file's length: {!end_offset} plus the zero-filled, synced tail; 0
    for memory-backed logs. *)

val pending_records : t -> int
(** Appended records still sitting in the flush buffer (not yet written to
    the file); 0 for memory-backed logs. *)

val pending_bytes : t -> int
(** Framed bytes in the flush buffer awaiting the next {!flush}; 0 for
    memory-backed logs. *)

val unsynced_bytes : t -> int
(** Bytes written to the file but not yet known durable (a flush whose fsync
    raised); 0 for memory-backed logs and whenever the last flush synced. *)

val read_all : t -> Log_record.t array
(** Decode every retained record, pending ones included, with the frame
    walk {!open_file} replays with: element [i] holds LSN
    [base_lsn + 1 + i]. The first call after {!open_file}, before any
    append or truncation, returns the records the open's walk decoded
    rather than decoding the file again: restart decodes each frame once
    (the metrics counter [wal.decoded_frames] counts decodes). Raises
    [Sys_error] if a retained frame no longer reads (the file was changed
    under the log). *)

val close : t -> unit

val abandon : t -> unit
(** Close without writing buffered records — crash simulation. The file keeps
    every byte already written, synced or not. *)

val crash : t -> unit
(** Power-loss simulation: drop buffered records, zero the bytes written
    past the last fsynced one (bytes written by a flush whose fsync raised
    are not durable) and keep the file's length, as a preallocated file
    holds them after a power loss, then close. *)

val simulate_torn_tail : t -> bytes_to_truncate:int -> unit
(** Flush, then zero the last [bytes_to_truncate] bytes before the log's
    end and move the end back over them (crash-injection tests). Bytes that
    were zeros already tear nothing. *)
