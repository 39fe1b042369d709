open Dmx_wal

exception Undo_dispatch_missing

let m_begins = Dmx_obs.Metrics.counter "txn.begins"
let m_commits = Dmx_obs.Metrics.counter "txn.commits"
let m_aborts = Dmx_obs.Metrics.counter "txn.aborts"
let m_undo_records = Dmx_obs.Metrics.counter "txn.undo_records"
let m_redo_applied = Dmx_obs.Metrics.counter "wal.recovery.redo_applied"

type t = {
  wal : Wal.t;
  locks : Dmx_lock.Lock_table.t;
  mutable next_txid : int;
  active : (int, Txn.t) Hashtbl.t;
  mutable undo_dispatch :
    (Txn.t -> lsn:Log_record.lsn -> Log_record.t -> unit) option;
  mutable redo_dispatch :
    (Txn.t -> find:(Log_record.lsn -> Log_record.t option) -> Log_record.t ->
     unit)
    option;
  mutable catalog_hook : force:bool -> unit;
  mutable commit_observer : unit -> unit;
  mutable undone_count : int;
  mutable applied_count : int;
  mutable attrs : Tmap.t;
}

let create ~wal ~locks ?(attrs = Tmap.empty) () =
  {
    wal;
    locks;
    next_txid = Wal.next_txid wal;
    active = Hashtbl.create 8;
    undo_dispatch = None;
    redo_dispatch = None;
    catalog_hook = (fun ~force:_ -> ());
    commit_observer = ignore;
    undone_count = 0;
    applied_count = 0;
    attrs;
  }

let wal t = t.wal
let locks t = t.locks
let set_undo_dispatch t f = t.undo_dispatch <- Some f
let set_redo_dispatch t f = t.redo_dispatch <- Some f
let set_catalog_hook t f = t.catalog_hook <- f
let set_commit_observer t f = t.commit_observer <- f
let next_txid t = t.next_txid
let set_attr t key v = t.attrs <- Tmap.add key v t.attrs
let attr t key = Tmap.find key t.attrs

let attr_or_init t key init =
  match attr t key with
  | Some v -> v
  | None ->
    let v = init () in
    set_attr t key v;
    v

let begin_txn t =
  let id = t.next_txid in
  t.next_txid <- id + 1;
  let txn = Txn.make id in
  Hashtbl.replace t.active id txn;
  Dmx_obs.Metrics.incr m_begins;
  if Dmx_obs.Emit.active () then Dmx_obs.Emit.event "txn.begin" ~txid:id;
  txn

let find_txn t id = Hashtbl.find_opt t.active id
let active_txns t = Hashtbl.fold (fun _ tx acc -> tx :: acc) t.active []

let append_chained t txn kind =
  let lsn = Wal.append t.wal txn.Txn.id kind in
  txn.Txn.chain <- { Log_record.lsn; txid = txn.Txn.id; kind } :: txn.Txn.chain;
  lsn

let log_ext t txn ~source ~rel_id ~data =
  Txn.check_active txn;
  let lsn = append_chained t txn (Log_record.Ext { source; rel_id; data }) in
  (match (source : Log_record.source) with
  | Catalog -> txn.Txn.logged_catalog <- true
  | Smethod _ | Attachment _ -> ());
  lsn

(* The undo runs with the LSN its Clr will take, which is what an extension
   stamps on what it writes; the Clr is appended once the undo returns, so
   an undo that raises (an I/O error mid-rollback) leaves its record
   uncompensated and the next rollback tries it again. Nothing appends in
   between: undo never logs. *)
let dispatch_undo t txn (r : Log_record.t) =
  match t.undo_dispatch with
  | None -> raise Undo_dispatch_missing
  | Some f ->
    let lsn = Int64.succ (Wal.last_lsn t.wal) in
    f txn ~lsn r;
    let clr = append_chained t txn (Log_record.Clr { undone = r.lsn }) in
    assert (clr = lsn);
    t.undone_count <- t.undone_count + 1;
    Dmx_obs.Metrics.incr m_undo_records

(* Undo the transaction's uncompensated records with lsn > limit, newest
   first. *)
let undo_back_to t txn ~limit =
  Recovery.uncompensated txn.Txn.chain
  |> List.iter (fun (r : Log_record.t) ->
         if r.lsn > limit then dispatch_undo t txn r)

let finish t txn state =
  txn.Txn.state <- state;
  Txn.close_all_scans txn;
  Hashtbl.remove t.active txn.Txn.id;
  txn.Txn.chain <- [];
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

(* Nothing is forced: restart's redo pass repeats the Clrs, so a durable
   Abort needs no durable pages behind it. Catalog undos are not repeated
   (the snapshot is their redo), so a transaction that changed the catalog
   saves the snapshot before its Abort. A transaction that logged nothing
   is not in the log, so it ends with no record. *)
let do_abort t txn =
  Txn.check_active txn;
  undo_back_to t txn ~limit:0L;
  if txn.Txn.logged_catalog then t.catalog_hook ~force:false;
  if txn.Txn.chain <> [] then
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
  (* A transaction that logged nothing is read-only: no record, no flush;
     it never entered the log, so restart never sees it. One that logged a
     catalog change (DDL) makes it durable before its Commit record: DDL
     index builds on a fresh structure are not logged, so redo could not
     rebuild them, and restart trusts the catalog snapshot for every
     committed descriptor. The catalog records behind the snapshot are
     flushed first, as a page's log records before the page. A DML commit
     writes its Commit record and flushes, nothing more. *)
  if txn.Txn.chain <> [] then begin
    if txn.Txn.logged_catalog then begin
      Wal.flush t.wal;
      t.catalog_hook ~force:true
    end;
    ignore (Wal.append t.wal txn.Txn.id Log_record.Commit);
    Wal.flush t.wal
  end;
  let after = Txn.take_deferred txn On_commit in
  finish t txn Committed;
  Dmx_obs.Metrics.incr m_commits;
  List.iter (fun f -> f ()) after;
  (* fires after the commit is fully durable and deregistered, so a
     checkpoint policy hooked here sees a settled transaction table *)
  t.commit_observer ()

let commit t txn = with_txn_span "txn.commit" t txn do_commit

(* A savepoint logs nothing: undo stops at the log's end as it was when the
   mark was taken, and the mark carries the scan positions to restore. *)
let mark t txn =
  Txn.check_active txn;
  {
    Txn.mark_lsn = Wal.last_lsn t.wal;
    mark_restores = Txn.capture_scan_positions txn;
  }

let rollback_to_mark t txn (m : Txn.mark) =
  Txn.check_active txn;
  undo_back_to t txn ~limit:m.mark_lsn;
  List.iter (fun restore -> restore ()) m.mark_restores

let savepoint t txn name =
  let m = mark t txn in
  (* Re-establishing a name replaces the older savepoint. *)
  txn.Txn.savepoints <- (name, m) :: List.remove_assoc name txn.Txn.savepoints

(* Savepoints established after [name] are gone; [name] itself remains.
   Two savepoints taken with no record between them share a mark LSN, so
   the newer ones are told apart by their place in the list. *)
let rollback_to t txn name =
  let rec from = function
    | [] -> raise Not_found
    | (n, m) :: _ as kept when n = name -> (m, kept)
    | _ :: older -> from older
  in
  let m, kept = from txn.Txn.savepoints in
  rollback_to_mark t txn m;
  txn.Txn.savepoints <- kept

(* Repeat history from the analysis start through the redo dispatcher:
   every Ext record through its extension's redo entry, every Clr by
   repeating the undo it records (state-checked, so repeating it is
   harmless), finding the record it undid in restart's decode. Counts the
   records replayed, and the winners' uncompensated records whose redo
   changed state: the committed work the store had lost. *)
let redo_pass t ~base log (analysis : Recovery.analysis) =
  let redo =
    match t.redo_dispatch with
    | Some redo -> redo
    | None -> raise Undo_dispatch_missing
  in
  let txns = Hashtbl.create 16 in
  let txn_of id =
    match Hashtbl.find_opt txns id with
    | Some txn -> txn
    | None ->
      let txn = Txn.make id in
      Hashtbl.add txns id txn;
      txn
  in
  let winners = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace winners id ()) analysis.winners;
  let from = Int64.to_int (Int64.sub analysis.restart_lsn base) - 1 in
  let each f = Array.iter f (Array.sub log from (Array.length log - from)) in
  let compensated = Hashtbl.create 16 in
  each (fun (r : Log_record.t) ->
      match r.kind with
      | Clr { undone } -> Hashtbl.replace compensated undone ()
      | _ -> ());
  let committed (r : Log_record.t) =
    Hashtbl.mem winners r.txid && not (Hashtbl.mem compensated r.lsn)
  in
  let records = ref 0 and applied = ref 0 in
  each (fun (r : Log_record.t) ->
      match r.kind with
      | Ext _ | Clr _ ->
        incr records;
        let before = t.applied_count in
        redo (txn_of r.txid) ~find:(Recovery.find ~base log) r;
        if t.applied_count > before && committed r then incr applied
      | Commit | Abort | Checkpoint _ -> ());
  Dmx_obs.Metrics.add m_redo_applied !applied;
  { analysis with redo_records = !records; redo_applied = !applied }

(* Restart decodes the retained log once, from its base, and every pass
   reads that array. [grow] sees it first, so the page store holds every
   page a record names before redo runs. The losers' catalog records are
   undone before redo: redo reads the descriptors, and a loser's drop (of a
   relation or an index) would otherwise hide the committed changes redo
   must repeat on it. *)
let recover ?(grow = ignore) t =
  let base = Wal.base_lsn t.wal in
  let log = Wal.read_all t.wal in
  grow log;
  let analysis = Recovery.analyze ~base log in
  let undo_losers keep =
    List.iter
      (fun (txid, records) ->
        let txn = Txn.make txid in
        List.iter (fun r -> if keep r then dispatch_undo t txn r) records)
      analysis.Recovery.undo_work
  in
  let catalog (r : Log_record.t) =
    match r.kind with Ext { source = Catalog; _ } -> true | _ -> false
  in
  undo_losers catalog;
  let analysis = redo_pass t ~base log analysis in
  undo_losers (fun r -> not (catalog r));
  (* the losers' catalog undo must reach the snapshot before their Aborts
     make them finished *)
  t.catalog_hook ~force:false;
  List.iter
    (fun (txid, _) -> ignore (Wal.append t.wal txid Log_record.Abort))
    analysis.Recovery.undo_work;
  Wal.flush t.wal;
  analysis

let stats_undo_count t = t.undone_count
let note_applied t = t.applied_count <- t.applied_count + 1
