(** Transactions.

    Carries the per-transaction state the common services need: deferred
    action queues ("before transaction enters the prepared state" and commit,
    paper p. 225), registered key-sequential scans (closed at transaction
    termination; positions captured at savepoints and restored after partial
    rollback, paper p. 224), savepoints, the chain of records it has
    logged, and a typed map of extension-private state. *)

type state = Active | Committed | Aborted

(** Deferred-action queue events. *)
type event =
  | Before_prepare
      (** drained after the last modification, before commit hardening —
          deferred integrity checks run here and may still veto (raise) *)
  | On_commit  (** drained after the commit record is hardened — deferred
                   drops release storage here *)
  | On_abort  (** drained after rollback completes *)

(** What a registered scan must provide: [close] for transaction termination,
    and [capture] which snapshots the current position and returns the thunk
    that restores it (run after a partial rollback crosses the savepoint). *)
type scan_reg = {
  scan_close : unit -> unit;
  scan_capture : unit -> (unit -> unit);
}

(** A rollback point, kept in memory only: the log's end when it was taken
    (rollback undoes the records above it) and the thunks that restore the
    scan positions captured then. *)
type mark = {
  mark_lsn : Dmx_wal.Log_record.lsn;
  mark_restores : (unit -> unit) list;
}

type t = {
  id : int;
  mutable state : state;
  mutable deferred : (event * (unit -> unit)) list;  (** oldest first *)
  mutable scans : (int * scan_reg) list;
  mutable savepoints : (string * mark) list;  (** newest first *)
  mutable attrs : Tmap.t;
  mutable next_scan_id : int;
  mutable mods : int;
      (** relation modifications issued so far; a buffered record cursor
          re-reads its run when this moves *)
  mutable logged_catalog : bool;
      (** appended a [Catalog] record: commit forces the pool *)
  mutable chain : Dmx_wal.Log_record.t list;
      (** its [Ext] records and their undos' [Clr]s, newest first; rollback
          reads it, and it dies with the transaction. A transaction with a
          chain is in the log: commit and abort append its record, and a
          checkpoint lists it as active *)
}

val make : int -> t
val is_active : t -> bool
exception Not_active of int
(** A committed or aborted transaction was asked to do more work. *)

val check_active : t -> unit
(** Raises {!Not_active} with the transaction's id unless it is active. *)

val defer : t -> event -> (unit -> unit) -> unit
(** Append an entry to the deferred-action queue for [event]. *)

val take_deferred : t -> event -> (unit -> unit) list
(** Remove and return the queue for [event], oldest first. *)

val register_scan : t -> scan_reg -> int
(** Returns a handle for {!unregister_scan} (scans closed early by the user). *)

val unregister_scan : t -> int -> unit

val close_all_scans : t -> unit
(** Transaction-termination notification to every open scan. *)

val capture_scan_positions : t -> (unit -> unit) list

val set_attr : t -> 'a Tmap.key -> 'a -> unit
val attr : t -> 'a Tmap.key -> 'a option
val pp : Format.formatter -> t -> unit
