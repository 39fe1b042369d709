(** Common-services assembly: wires the substrate into one environment,
    freezes the registry, runs restart recovery and hands out transaction
    contexts. This is the "common services environment" box of Figure 2. *)

type checkpoint_stats = {
  ck_lsn : Dmx_wal.Log_record.lsn;  (** LSN of the [Checkpoint] record *)
  ck_pages_written : int;  (** dirty pages the checkpoint wrote *)
  ck_active_txns : int;  (** transactions the record lists as active *)
  ck_truncated_records : int;
  ck_truncated_bytes : int;
}

type t = {
  disk : Dmx_page.Disk.t;
  bp : Dmx_page.Buffer_pool.t;
  wal : Dmx_wal.Wal.t;
  locks : Dmx_lock.Lock_table.t;
  txn_mgr : Dmx_txn.Txn_mgr.t;
  catalog : Dmx_catalog.Catalog.t;
  mutable last_recovery : Dmx_wal.Recovery.analysis option;
  mutable ckpt_every_bytes : int;
  mutable ckpt_bytes_mark : int;
}

val setup :
  ?dir:string -> ?disk:Dmx_page.Disk.t -> ?pool_capacity:int ->
  ?chaos:Undo.chaos -> ?attrs:Dmx_txn.Tmap.t -> unit -> t
(** [dir] selects durable operation: pages in [dir/pages.dmx], log in
    [dir/wal.dmx], catalog snapshot in [dir/catalog.dmx]; omitted means fully
    in-memory (tests, benches, temporaries). [disk] substitutes the page
    store regardless of [dir] (the chaos harness injects a
    {!Dmx_page.Fault_disk} view here while keeping the log and catalog in
    [dir]). Freezes the registry — all extensions must be registered before
    this call — then wires the WAL-before-page hook, the catalog hook (a
    transaction that logged a catalog change forces the pool at commit and
    saves the snapshot at commit or abort; DML saves nothing) and the undo
    and redo dispatchers, and runs restart recovery: the store is extended
    to every page a retained log record names ({!Registry.set_sm_page_bound}),
    then analysis and redo from the last checkpoint, the undo of losers,
    and a checkpoint (DESIGN.md §15). [chaos] plants a recovery bug in this
    database's undo and redo dispatch, restart included; only the chaos
    harness's mutation runs pass it. [attrs]: extension state the
    application owns, set before restart recovery ([Remote_server.attrs]). *)

val checkpoint : ?truncate:bool -> t -> checkpoint_stats
(** Take a checkpoint now: write every dirty page and sync the store
    ({!Dmx_page.Buffer_pool.flush_all}, WAL-before-page preserved), append
    one [Checkpoint] record listing the active transactions that have
    logged a record and the next txid, and flush the log. Under no-force
    this is how committed pages reach the store: once the record is
    durable, restart's analysis and redo start at it. Runs
    between operations with transactions still active — no quiescing. With
    [truncate] (default [true]) the log below min(checkpoint LSN, each
    active transaction's first LSN) is dropped via
    {!Dmx_wal.Wal.truncate_before}. *)

val set_checkpoint_policy : every_bytes:int -> t -> unit
(** Arm (or with 0, disarm) the automatic policy: after each commit, if at
    least [every_bytes] log bytes ({!Dmx_wal.Wal.appended_bytes}, on either
    backend) have been appended since the last checkpoint, one is taken.
    Off at setup. *)

val checkpoint_policy : t -> int
(** The armed [every_bytes]; 0 means disabled. *)

val checkpoint_due : t -> bool
(** Whether the armed policy would trigger a checkpoint right now. *)

val begin_txn : t -> Ctx.t
val commit : t -> Ctx.t -> unit
val abort : t -> Ctx.t -> unit
val savepoint : Ctx.t -> string -> unit
val rollback_to : Ctx.t -> string -> unit

val with_txn : t -> (Ctx.t -> ('a, Error.t) result) -> ('a, Error.t) result
(** Start a transaction; commit on [Ok], abort on [Error] or exception. *)

val close : t -> unit
(** Clean shutdown: abort active transactions, checkpoint (so a clean reopen
    has nothing to redo), save the catalog, close files. *)

val simulate_crash : t -> unit
(** Abandon all volatile state without any clean-shutdown work: dirty pages
    (committed or not) and buffered log records are lost, the catalog
    snapshot is not written, active transactions simply stop. Reopening with
    {!setup} then exercises restart recovery, whose redo pass brings back
    the committed changes. Only meaningful for file-backed services. *)

val io_stats : t -> Dmx_page.Io_stats.t

val resolve_deadlock : t -> int option
(** Run system-wide deadlock detection over the common lock table plus any
    extension-registered lock controllers; abort the chosen victim (rolling
    back its work through the log) and return its transaction id. [None] when
    no cycle exists. *)
