open Dmx_wal

exception Undo_dispatch_missing

let m_begins = Dmx_obs.Metrics.counter "txn.begins"
let m_commits = Dmx_obs.Metrics.counter "txn.commits"
let m_aborts = Dmx_obs.Metrics.counter "txn.aborts"
let m_undo_records = Dmx_obs.Metrics.counter "txn.undo_records"

type t = {
  wal : Wal.t;
  locks : Dmx_lock.Lock_table.t;
  mutable next_txid : int;
  active : (int, Txn.t) Hashtbl.t;
  mutable undo_dispatch : (Txn.t -> Log_record.t -> unit) option;
  mutable force_hook : unit -> unit;
  mutable commit_observer : unit -> unit;
  mutable undone_count : int;
}

let create ~wal ~locks () =
  (* After restart the log may already hold transactions; ids continue. *)
  let max_txid =
    Wal.fold wal ~init:0 ~f:(fun m (r : Log_record.t) -> max m r.txid)
  in
  {
    wal;
    locks;
    next_txid = max_txid + 1;
    active = Hashtbl.create 8;
    undo_dispatch = None;
    force_hook = ignore;
    commit_observer = ignore;
    undone_count = 0;
  }

let wal t = t.wal
let locks t = t.locks
let set_undo_dispatch t f = t.undo_dispatch <- Some f
let set_force_hook t f = t.force_hook <- f
let set_commit_observer t f = t.commit_observer <- f

let begin_txn t =
  let id = t.next_txid in
  t.next_txid <- id + 1;
  let txn = Txn.make id in
  Hashtbl.replace t.active id txn;
  ignore (Wal.append t.wal id Log_record.Begin);
  Dmx_obs.Metrics.incr m_begins;
  if Dmx_obs.Emit.active () then Dmx_obs.Emit.event "txn.begin" ~txid:id;
  txn

let find_txn t id = Hashtbl.find_opt t.active id
let active_txns t = Hashtbl.fold (fun _ tx acc -> tx :: acc) t.active []

let log_ext t txn ~source ~rel_id ~data =
  Txn.check_active txn;
  Wal.append t.wal txn.Txn.id (Log_record.Ext { source; rel_id; data })

(* Batched variant of [log_ext] for bulk operations: one activity check for
   the whole batch; the appends land contiguously in the pending buffer and
   harden in one write at the next flush. *)
let log_ext_many t txn ~source ~rel_id ~datas =
  Txn.check_active txn;
  List.map
    (fun data ->
      Wal.append t.wal txn.Txn.id (Log_record.Ext { source; rel_id; data }))
    datas

let dispatch_undo t txn (r : Log_record.t) =
  match t.undo_dispatch with
  | None -> raise Undo_dispatch_missing
  | Some f ->
    f txn r;
    t.undone_count <- t.undone_count + 1;
    Dmx_obs.Metrics.incr m_undo_records;
    ignore (Wal.append t.wal txn.Txn.id (Log_record.Clr { undone = r.lsn }))

module I64set = Set.Make (Int64)

let compensated_lsns wal txid =
  List.fold_left
    (fun acc (r : Log_record.t) ->
      match r.kind with
      | Clr { undone } -> I64set.add undone acc
      | _ -> acc)
    I64set.empty
    (Wal.records_of_txn wal txid)

(* Undo the transaction's Ext records with lsn > limit, newest first. *)
let undo_back_to t txn ~limit =
  let comp = compensated_lsns t.wal txn.Txn.id in
  let work =
    Wal.records_of_txn t.wal txn.Txn.id
    |> List.filter (fun (r : Log_record.t) ->
           r.lsn > limit
           &&
           match r.kind with
           | Ext _ -> not (I64set.mem r.lsn comp)
           | _ -> false)
  in
  (* records_of_txn is newest-first already *)
  List.iter (fun r -> dispatch_undo t txn r) work

let finish t txn state =
  txn.Txn.state <- state;
  Txn.close_all_scans txn;
  Hashtbl.remove t.active txn.Txn.id;
  Dmx_lock.Lock_table.release_all t.locks txn.Txn.id

(* Span bracketing without [try ... with]: this directory's error-discipline
   lint rejects catch-alls, and [match ... with exception] re-raises
   explicitly after closing the span. *)
let with_txn_span name t txn f =
  if not (Dmx_obs.Emit.active ()) then f t txn
  else begin
    let sp = Dmx_obs.Emit.enter name ~txid:txn.Txn.id in
    match f t txn with
    | () -> Dmx_obs.Emit.exit sp
    | exception e ->
      Dmx_obs.Emit.exit ~outcome:"exn" sp;
      raise e
  end

let do_abort t txn =
  Txn.check_active txn;
  undo_back_to t txn ~limit:0L;
  (* Same discipline as [recover]: the Abort record classifies this
     transaction as finished at restart, so the pages the undo restored
     must be durable before any later WAL flush can carry the Abort out.
     Forcing here (hook flushes the Clrs first, WAL-before-page) makes the
     subsequent buffered Abort safe under every flush schedule. *)
  t.force_hook ();
  ignore (Wal.append t.wal txn.Txn.id Log_record.Abort);
  let after = Txn.take_deferred txn On_abort in
  finish t txn Aborted;
  Dmx_obs.Metrics.incr m_aborts;
  List.iter (fun f -> f ()) after

let abort t txn = with_txn_span "txn.abort" t txn do_abort

let do_commit t txn =
  Txn.check_active txn;
  (* Deferred integrity checking: any action may raise, vetoing the commit. *)
  (match
     List.iter
       (fun f -> f ())
       (Txn.take_deferred txn Before_prepare)
   with
  | () -> ()
  | exception e ->
    abort t txn;
    raise e);
  Wal.flush t.wal;
  t.force_hook ();
  ignore (Wal.append t.wal txn.Txn.id Log_record.Commit);
  Wal.flush t.wal;
  let after = Txn.take_deferred txn On_commit in
  finish t txn Committed;
  Dmx_obs.Metrics.incr m_commits;
  List.iter (fun f -> f ()) after;
  (* fires after the commit is fully durable and deregistered, so a
     checkpoint policy hooked here sees a settled transaction table *)
  t.commit_observer ()

let commit t txn = with_txn_span "txn.commit" t txn do_commit

let savepoint t txn name =
  Txn.check_active txn;
  let lsn = Wal.append t.wal txn.Txn.id (Log_record.Savepoint name) in
  let restores = Txn.capture_scan_positions txn in
  let sp = { Txn.sp_name = name; sp_lsn = lsn; sp_restores = restores } in
  (* Re-establishing a name replaces the older savepoint. *)
  txn.Txn.savepoints <-
    sp :: List.filter (fun s -> s.Txn.sp_name <> name) txn.Txn.savepoints

let rollback_to t txn name =
  Txn.check_active txn;
  let sp =
    match
      List.find_opt (fun s -> s.Txn.sp_name = name) txn.Txn.savepoints
    with
    | Some sp -> sp
    | None -> raise Not_found
  in
  undo_back_to t txn ~limit:sp.sp_lsn;
  List.iter (fun restore -> restore ()) sp.sp_restores;
  (* Savepoints established after [sp] are gone; [sp] itself remains. *)
  txn.Txn.savepoints <-
    List.filter (fun s -> s.Txn.sp_lsn <= sp.sp_lsn) txn.Txn.savepoints

let recover t =
  let analysis = Recovery.analyze t.wal in
  List.iter
    (fun (txid, records) ->
      let txn = Txn.make txid in
      List.iter (fun r -> dispatch_undo t txn r) records)
    analysis.Recovery.undo_work;
  (* A durable [Abort] must imply durable undo: once the Abort reaches the
     log, analysis classifies the transaction as finished and nobody will
     ever undo it again — so the undone pages must hit disk first. The
     force also flushes the Clrs via the WAL-before-page hook. Only then
     are the terminal records appended and flushed. *)
  t.force_hook ();
  List.iter
    (fun (txid, _) -> ignore (Wal.append t.wal txid Log_record.Abort))
    analysis.Recovery.undo_work;
  Wal.flush t.wal;
  analysis

let stats_undo_count t = t.undone_count
