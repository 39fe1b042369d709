(** The log-driven undo and redo dispatcher.

    "The common recovery log is used to drive the storage method and
    attachment implementations to undo the partial effects of the aborted
    relation modification. The same log-based driver also drives storage
    method and attachment implementations during transaction abort and during
    system restart recovery" (paper p. 223). Restart also drives them
    forward: its redo pass repeats each logged change through the
    extension's redo entry (DESIGN.md §15).

    Installed into {!Dmx_txn.Txn_mgr} by {!Services.setup}; routes each [Ext]
    record to the undo (or redo) entry point of the owning extension through
    the registry, or to the catalog facility for catalog records. *)

val dispatch :
  txn_mgr:Dmx_txn.Txn_mgr.t ->
  bp:Dmx_page.Buffer_pool.t ->
  catalog:Dmx_catalog.Catalog.t ->
  Dmx_txn.Txn.t ->
  lsn:Dmx_wal.Log_record.lsn ->
  Dmx_wal.Log_record.t ->
  unit
(** Undo one record; [lsn] is the LSN of the [Clr] that records the undo
    ([Ctx.lsn] of the extension call). *)

val redo :
  txn_mgr:Dmx_txn.Txn_mgr.t ->
  bp:Dmx_page.Buffer_pool.t ->
  catalog:Dmx_catalog.Catalog.t ->
  Dmx_txn.Txn.t ->
  find:(Dmx_wal.Log_record.lsn -> Dmx_wal.Log_record.t option) ->
  Dmx_wal.Log_record.t ->
  unit
(** Repeat one record at restart, with its LSN as [Ctx.lsn] and
    [Ctx.replay] set: an [Ext] record through {!Registry.sm_redo} /
    {!Registry.at_redo}, a [Clr] by repeating the undo of the record
    [find] returns for the LSN it undid. Catalog records
    and their undos are not repeated: the catalog snapshot already holds
    them. *)

val set_chaos_skip : (Dmx_wal.Log_record.t -> bool) option -> unit
(** Mutation point for the chaos harness: records matching the predicate are
    silently *not* undone — a planted recovery bug that the torture oracle
    must catch (see DESIGN.md §10). [None] (the default) restores correct
    dispatch. Never used outside deliberate mutation runs. *)

val set_redo_chaos_skip : (Dmx_wal.Log_record.t -> bool) option -> unit
(** The same for redo: matching records are silently *not* redone. *)
