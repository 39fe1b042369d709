open Dmx_page
open Dmx_wal

let m_checkpoints = Dmx_obs.Metrics.counter "ckpt.checkpoints"
let m_ckpt_pages = Dmx_obs.Metrics.counter "ckpt.pages_written"

type checkpoint_stats = {
  ck_lsn : Log_record.lsn;  (** LSN of the [Checkpoint] record *)
  ck_pages_written : int;
  ck_active_txns : int;
  ck_truncated_records : int;
  ck_truncated_bytes : int;
}

type t = {
  disk : Disk.t;
  bp : Buffer_pool.t;
  wal : Wal.t;
  locks : Dmx_lock.Lock_table.t;
  txn_mgr : Dmx_txn.Txn_mgr.t;
  catalog : Dmx_catalog.Catalog.t;
  mutable last_recovery : Recovery.analysis option;
  mutable ckpt_every_bytes : int;  (* checkpoint policy; 0 = off *)
  mutable ckpt_bytes_mark : int;  (* Wal.appended_bytes at last checkpoint *)
}

(* The I/O counters are always on (the cost model reads them); the "io"
   probe folds them into the common metrics exposition at snapshot time.
   It covers every database the process opened: [retired] holds what the
   databases it moved on from counted while tracked, and [live] is the
   newest database's counters with their values when it opened, so a store
   reopened after a crash is not counted twice. One probe, registered
   once, keeps its {!Dmx_obs.Metrics.reset} baseline across databases. *)
type io_probe = { retired : Io_stats.t; live : Io_stats.t; opened : Io_stats.t }

let io_probe = ref None [@@dmx.global "config-immutable-after-setup"]

let io_total p =
  Io_stats.add p.retired (Io_stats.diff ~after:p.live ~before:p.opened)

let track_io disk =
  let live = Disk.stats disk in
  let fresh retired = Some { retired; live; opened = Io_stats.copy live } in
  match !io_probe with
  | Some p -> io_probe := fresh (io_total p)
  | None ->
    io_probe := fresh (Io_stats.create ());
    Dmx_obs.Metrics.register_probe "io" (fun () ->
        match !io_probe with
        | Some p -> Io_stats.to_metrics (io_total p)
        | None -> [])

let set_checkpoint_policy ~every_bytes t =
  t.ckpt_every_bytes <- max 0 every_bytes

let checkpoint_policy t = t.ckpt_every_bytes

let checkpoint_due t =
  t.ckpt_every_bytes > 0
  && Wal.appended_bytes t.wal - t.ckpt_bytes_mark >= t.ckpt_every_bytes

(* A checkpoint runs between operations, never inside one, so no change is
   half made and nothing appends while it runs: force every dirty page and
   sync the store, then log one [Checkpoint] record listing the active
   transactions that have logged a record (one that has not has an empty
   chain: it pins no truncation and is no restart loser) and the next txid,
   and flush it. The store then holds every change logged before that record,
   so restart's analysis and redo start there. With [truncate] (default),
   the log below min(checkpoint LSN, each active transaction's first LSN)
   is then dropped: redo never reads below the checkpoint, and undo reads
   only the active transactions' chains. A crash before the record is
   durable restarts from the previous checkpoint. The catalog needs no
   snapshot here: only DDL changes it, and every DDL commit saves it. *)
let checkpoint ?(truncate = true) t =
  let wal = t.wal in
  let written = Buffer_pool.flush_all t.bp in
  let txns = Dmx_txn.Txn_mgr.active_txns t.txn_mgr in
  let active =
    List.sort compare
      (List.filter_map
         (fun (txn : Dmx_txn.Txn.t) ->
           if txn.chain <> [] then Some txn.id else None)
         txns)
  in
  let next_txid = Dmx_txn.Txn_mgr.next_txid t.txn_mgr in
  let ck_lsn =
    Wal.append wal 0 (Log_record.Checkpoint { active; next_txid })
  in
  Wal.flush wal;
  let trecords, tbytes =
    if truncate then
      (* an active transaction's whole chain stays: restart may undo it *)
      let first_lsn cut (txn : Dmx_txn.Txn.t) =
        List.fold_left
          (fun cut (r : Log_record.t) -> min cut r.lsn)
          cut txn.chain
      in
      Wal.truncate_before wal (List.fold_left first_lsn ck_lsn txns)
    else (0, 0)
  in
  t.ckpt_bytes_mark <- Wal.appended_bytes wal;
  Dmx_obs.Metrics.incr m_checkpoints;
  Dmx_obs.Metrics.add m_ckpt_pages written;
  if Dmx_obs.Emit.active () then
    Dmx_obs.Emit.event "ckpt.complete"
      ~attrs:
        [ ("lsn", Dmx_obs.Obs_json.Int (Int64.to_int ck_lsn));
          ("written", Dmx_obs.Obs_json.Int written);
          ("active", Dmx_obs.Obs_json.Int (List.length active));
          ("truncated_records", Dmx_obs.Obs_json.Int trecords);
          ("truncated_bytes", Dmx_obs.Obs_json.Int tbytes) ];
  {
    ck_lsn;
    ck_pages_written = written;
    ck_active_txns = List.length active;
    ck_truncated_records = trecords;
    ck_truncated_bytes = tbytes;
  }

(* The crash may have dropped pages allocated since the last sync. Every
   page a retained record names is brought back, zeroed, before redo, so
   redo finds it and no allocation redo repeats (a B-tree split run again)
   takes it. *)
let grow_store disk log =
  let top =
    Array.fold_left
      (fun top (r : Log_record.t) ->
        match r.kind with
        | Ext { source = Smethod id; data; _ } ->
          max top (Registry.sm_page_bound id data)
        | Ext _ | Commit | Abort | Clr _ | Checkpoint _ -> top)
      0 log
  in
  while Disk.page_count disk < top do
    ignore (Disk.alloc disk)
  done

let rec setup ?dir ?disk ?(pool_capacity = 256) ?(chaos = Undo.no_chaos)
    ?attrs () =
  Registry.freeze ();
  let disk, wal, catalog =
    match dir with
    | None ->
      ( (match disk with Some d -> d | None -> Disk.in_memory ()),
        Wal.in_memory (),
        Dmx_catalog.Catalog.create () )
    | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      ( (match disk with
        | Some d -> d
        | None -> Disk.open_file (Filename.concat dir "pages.dmx")),
        Wal.open_file (Filename.concat dir "wal.dmx"),
        Dmx_catalog.Catalog.load ~path:(Filename.concat dir "catalog.dmx") )
  in
  match
    setup_with ~dir ~disk ~wal ~catalog ~pool_capacity ~chaos ~attrs
  with
  | t -> t
  | exception e ->
    (* Recovery itself can die (the chaos harness crashes the page store
       mid-recovery). Release the file handles so the caller can retry with a
       fresh [setup] against the same directory. *)
    Wal.abandon wal;
    Disk.close disk;
    raise e

and setup_with ~dir ~disk ~wal ~catalog ~pool_capacity ~chaos ~attrs =
  let bp = Buffer_pool.create ~capacity:pool_capacity disk in
  (* WAL rule: the log records behind a page must be durable before the page
     reaches the backing store. The pool stamps each dirty frame with the
     log's end, so a page holding only hardened changes (committed work,
     under no-force most of what eviction writes) costs no log fsync. *)
  Buffer_pool.set_log_end bp (fun () -> Wal.last_lsn wal);
  Buffer_pool.set_flush_hook bp (fun lsn ->
      if lsn > Wal.flushed_lsn wal || Wal.unsynced_bytes wal > 0 then
        Wal.flush wal);
  (* Runtime sanitizer (DMX_SANITIZE=1): every append must carry a strictly
     increasing LSN. The observer is installed unconditionally and no-ops
     when the sanitizer is off. *)
  Wal.set_append_observer wal
    (Invariant.lsn_observer
       ~source:(match dir with None -> "wal (in-memory)" | Some d -> "wal " ^ d)
       ());
  track_io disk;
  (* Resolve the profiler's (vector, slot) keys to registry names. The
     registry is frozen above, so ids are stable for this process. *)
  Dmx_obs.Profile.set_key_namer (Dmx_obs.Emit.profile ()) (function
    | Dmx_obs.Profile.Smethod i -> (
      match Registry.storage_method_name i with
      | name -> Some ("smethod:" ^ name)
      | exception Invalid_argument _ -> None)
    | Dmx_obs.Profile.Attachment i -> (
      match Registry.attachment_name i with
      | name -> Some ("attach:" ^ name)
      | exception Invalid_argument _ -> None)
    | _ -> None);
  let locks = Dmx_lock.Lock_table.create () in
  let txn_mgr = Dmx_txn.Txn_mgr.create ~wal ~locks ?attrs () in
  (* Lockdep mirrors the LSN observer: installed only when the sanitizer is
     on at mount time, so the disabled grant path stays allocation-free. The
     database gets its own order graph. *)
  if Invariant.enabled () then Invariant.install_lockdep txn_mgr;
  let t =
    {
      disk;
      bp;
      wal;
      locks;
      txn_mgr;
      catalog;
      last_recovery = None;
      ckpt_every_bytes = 0;
      ckpt_bytes_mark = Wal.appended_bytes wal;
    }
  in
  (* Only DDL changes the catalog: its commit forces the pool, then saves
     the snapshot. *)
  Dmx_txn.Txn_mgr.set_catalog_hook txn_mgr (fun ~force ->
      if force then ignore (Buffer_pool.flush_all bp);
      if Dmx_catalog.Catalog.dirty catalog then Dmx_catalog.Catalog.save catalog);
  Dmx_txn.Txn_mgr.set_undo_dispatch txn_mgr
    (Undo.dispatch ~chaos ~txn_mgr ~bp ~catalog);
  Dmx_txn.Txn_mgr.set_redo_dispatch txn_mgr
    (Undo.redo ~chaos ~txn_mgr ~bp ~catalog);
  Dmx_txn.Txn_mgr.set_commit_observer txn_mgr (fun () ->
      if checkpoint_due t then ignore (checkpoint t));
  t.last_recovery <-
    Some (Dmx_txn.Txn_mgr.recover ~grow:(grow_store disk) txn_mgr);
  (* the next restart starts here, with nothing to redo *)
  ignore (checkpoint t);
  t

let begin_txn t =
  let txn = Dmx_txn.Txn_mgr.begin_txn t.txn_mgr in
  Ctx.make ~txn ~txn_mgr:t.txn_mgr ~bp:t.bp ~catalog:t.catalog ()

let commit t ctx =
  ignore t;
  (* Before Txn_mgr.commit: close_all_scans inside [finish] would hide the
     leak this check reports. *)
  Invariant.check_scan_balance ~at:"commit" ctx.Ctx.txn;
  Dmx_txn.Txn_mgr.commit ctx.Ctx.txn_mgr ctx.Ctx.txn;
  Invariant.check_pin_balance ~at:"commit" ctx.Ctx.bp;
  Invariant.check_span_balance ~at:"commit"

let abort t ctx =
  ignore t;
  Dmx_txn.Txn_mgr.abort ctx.Ctx.txn_mgr ctx.Ctx.txn;
  Invariant.check_pin_balance ~at:"abort" ctx.Ctx.bp;
  Invariant.check_span_balance ~at:"abort"

let savepoint ctx name = Dmx_txn.Txn_mgr.savepoint ctx.Ctx.txn_mgr ctx.Ctx.txn name

let rollback_to ctx name =
  Dmx_txn.Txn_mgr.rollback_to ctx.Ctx.txn_mgr ctx.Ctx.txn name

let with_txn t f =
  let ctx = begin_txn t in
  match f ctx with
  | Ok v ->
    commit t ctx;
    Ok v
  | Error _ as e ->
    abort t ctx;
    e
  | exception e ->
    if Dmx_txn.Txn.is_active ctx.Ctx.txn then abort t ctx;
    raise e

(* A clean shutdown checkpoints, so a clean reopen has nothing to redo. *)
let close t =
  List.iter
    (fun txn -> Dmx_txn.Txn_mgr.abort t.txn_mgr txn)
    (Dmx_txn.Txn_mgr.active_txns t.txn_mgr);
  ignore (checkpoint t);
  Dmx_catalog.Catalog.save t.catalog;
  Wal.close t.wal;
  Disk.close t.disk;
  Dmx_obs.Emit.flush ()

let simulate_crash t =
  (* Volatile memory vanishes: no force, no catalog save, no clean abort.
     [Wal.crash] also drops log bytes written but never fsynced (a flush
     whose fsync raised), modelling power loss rather than a process kill. *)
  Buffer_pool.drop_cache t.bp;
  Wal.crash t.wal;
  Disk.close t.disk

let io_stats t = Disk.stats t.disk

let resolve_deadlock t =
  match Dmx_lock.Deadlock.detect t.locks with
  | None -> None
  | Some victim -> begin
    (match Dmx_txn.Txn_mgr.find_txn t.txn_mgr victim with
    | Some txn -> Dmx_txn.Txn_mgr.abort t.txn_mgr txn
    | None ->
      (* a phantom edge from an extension controller; drop its waits *)
      Dmx_lock.Lock_table.release_all t.locks victim);
    Some victim
  end
