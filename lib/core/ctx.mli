(** The common-services execution context.

    Every generic-interface call receives a [Ctx.t]: the calling transaction
    plus handles to the common services — recovery log, lock manager, buffer
    pool, catalog. Extensions are "embedded in the database management system
    execution environment and ... make use of certain common services" (paper
    p. 223); this record is that environment. *)

open Dmx_wal

type t = {
  txn : Dmx_txn.Txn.t;
  txn_mgr : Dmx_txn.Txn_mgr.t;
  bp : Dmx_page.Buffer_pool.t;  (** shared pool for recoverable page storage *)
  catalog : Dmx_catalog.Catalog.t;
  locks : Dmx_lock.Lock_table.t;
  lsn : Log_record.lsn;
      (** The log record a [redo] or [undo] call replays — for an undo, the
          [Clr] that records it, appended when the call returns — so an
          extension can stamp what it applied (DESIGN.md §15); [no_lsn] on
          forward calls. *)
  replay : bool;
      (** Restart is repeating history (a redo, or the undo a [Clr]
          records): the catalog snapshot already holds the descriptors, so
          record counts must not move. *)
}

val make :
  ?lsn:Log_record.lsn -> ?replay:bool -> txn:Dmx_txn.Txn.t ->
  txn_mgr:Dmx_txn.Txn_mgr.t -> bp:Dmx_page.Buffer_pool.t ->
  catalog:Dmx_catalog.Catalog.t -> unit -> t

val applied : t -> unit
(** A [redo] entry point reports that it changed state: restart counts the
    winners' records that needed applying ([wal.recovery.redo_applied]). *)

val log : t -> source:Log_record.source -> rel_id:int -> data:string ->
  Log_record.lsn
(** Common logging service: append an undoable-operation record for this
    transaction. *)

val lock :
  t -> mode:Dmx_lock.Lock_mode.t -> Dmx_lock.Lock_table.resource ->
  (unit, Error.t) result
(** Common locking service under the no-wait policy: a conflict is surfaced as
    [Lock_conflict] and the caller aborts (DESIGN.md §3 explains why blocking
    is simulated, not preemptive). *)

val trace_event : t -> ?attrs:(string * Dmx_obs.Obs_json.t) list -> string ->
  unit
(** Common observability service: emit a point event tagged with the calling
    transaction. No-op (one branch) unless tracing is enabled. *)

val with_span : t -> ?attrs:(string * Dmx_obs.Obs_json.t) list -> string ->
  (unit -> ('a, Error.t) result) -> ('a, Error.t) result
(** Common observability service: bracket [f] in a trace span tagged with the
    calling transaction. The outcome is derived from the result — [ok],
    [veto] ({!Error.Veto}), [error] (other [Error.t]), or [exn] (re-raised).
    When tracing is disabled this is exactly [f ()]. *)

val defer : t -> Dmx_txn.Txn.event -> (unit -> unit) -> unit
(** Deferred-action queue service. *)

val register_scan : t -> Dmx_txn.Txn.scan_reg -> int
val unregister_scan : t -> int -> unit
