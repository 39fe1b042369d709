open Dmx_wal

type t = {
  txn : Dmx_txn.Txn.t;
  txn_mgr : Dmx_txn.Txn_mgr.t;
  bp : Dmx_page.Buffer_pool.t;
  catalog : Dmx_catalog.Catalog.t;
  locks : Dmx_lock.Lock_table.t;
  lsn : Log_record.lsn;
  replay : bool;
}

let make ?(lsn = Log_record.no_lsn) ?(replay = false) ~txn ~txn_mgr ~bp
    ~catalog () =
  { txn; txn_mgr; bp; catalog; locks = Dmx_txn.Txn_mgr.locks txn_mgr; lsn;
    replay }

let applied t = Dmx_txn.Txn_mgr.note_applied t.txn_mgr

let log t ~source ~rel_id ~data =
  Dmx_txn.Txn_mgr.log_ext t.txn_mgr t.txn ~source ~rel_id ~data

let lock t ~mode resource =
  match
    Dmx_lock.Lock_table.acquire t.locks ~txid:t.txn.Dmx_txn.Txn.id ~mode
      resource
  with
  | Dmx_lock.Lock_table.Granted -> Ok ()
  | Dmx_lock.Lock_table.Would_block holders ->
    Error (Error.Lock_conflict { txid = t.txn.Dmx_txn.Txn.id; holders })

let trace_event t ?(attrs = []) name =
  if Dmx_obs.Emit.active () then
    Dmx_obs.Emit.event name ~txid:t.txn.Dmx_txn.Txn.id ~attrs

let with_span t ?(attrs = []) name f =
  if not (Dmx_obs.Emit.active ()) then f ()
  else begin
    let sp =
      Dmx_obs.Emit.enter name ~txid:t.txn.Dmx_txn.Txn.id ~attrs
        ~key:(Dmx_obs.Profile.Span name)
    in
    match f () with
    | Ok _ as r ->
      Dmx_obs.Emit.exit sp;
      r
    | Error e as r ->
      let outcome =
        match e with Error.Veto _ -> "veto" | _ -> "error"
      in
      Dmx_obs.Emit.exit ~outcome
        ~attrs:[ ("reason", Dmx_obs.Obs_json.Str (Error.to_string e)) ]
        sp;
      r
    | exception exn ->
      Dmx_obs.Emit.exit ~outcome:"exn" sp;
      raise exn
  end

let defer t event f = Dmx_txn.Txn.defer t.txn event f
let register_scan t reg = Dmx_txn.Txn.register_scan t.txn reg
let unregister_scan t id = Dmx_txn.Txn.unregister_scan t.txn id

(* source helpers used by Ctx.log callers; re-exported implicitly *)
let _ = ignore (fun (s : Log_record.source) -> s)
