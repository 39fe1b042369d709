open Dmx_wal

(* Chaos-harness mutation points: when set, matching Ext records are
   silently skipped instead of dispatched to undo (or to redo) — a
   deliberately planted recovery bug used to prove the torture oracle
   catches real defects. Never set outside mutation runs
   (bin/dmx_chaos.exe --mutate). *)
type skips = {
  skip_undo : (Log_record.t -> bool) option;
  skip_redo : (Log_record.t -> bool) option;
}

let chaos_skip = ref { skip_undo = None; skip_redo = None } [@@dmx.global "UNSAFE"]
let set_chaos_skip f = chaos_skip := { !chaos_skip with skip_undo = f }
let set_redo_chaos_skip f = chaos_skip := { !chaos_skip with skip_redo = f }

let skipped skip r = match skip with Some f -> f r | None -> false

let undo_ext ctx catalog (r : Log_record.t) =
  match r.Log_record.kind with
  | Ext { source; rel_id; data } -> begin
    match source with
    | Smethod id ->
      let (module M : Intf.STORAGE_METHOD) = Registry.storage_method id in
      M.undo ctx ~rel_id ~data
    | Attachment id ->
      let (module M : Intf.ATTACHMENT) = Registry.attachment id in
      M.undo ctx ~rel_id ~data
    | Catalog ->
      Dmx_catalog.Catalog.undo_op catalog (Dmx_catalog.Catalog.decode_op data)
  end
  | Commit | Abort | Clr _ | Checkpoint _ -> ()

let dispatch ~txn_mgr ~bp ~catalog txn ~lsn (r : Log_record.t) =
  if not (skipped !chaos_skip.skip_undo r) then begin
    if Invariant.enabled () then
      Invariant.check_undo_above_base ~txid:r.Log_record.txid
        ~lsn:r.Log_record.lsn
        ~base:(Wal.base_lsn (Dmx_txn.Txn_mgr.wal txn_mgr));
    undo_ext (Ctx.make ~lsn ~txn ~txn_mgr ~bp ~catalog ()) catalog r
  end

(* A Clr is redone by repeating the undo it records, with the Clr's LSN, on
   the record [find] returns (none once truncation dropped it). Catalog
   records are not redone, nor are their undos: the catalog snapshot saved
   at commit (and at abort and restart) already holds them, and restart
   undoes a loser's catalog records again in full. *)
let redo ~txn_mgr ~bp ~catalog txn ~find (r : Log_record.t) =
  let ctx () = Ctx.make ~lsn:r.lsn ~replay:true ~txn ~txn_mgr ~bp ~catalog () in
  match r.Log_record.kind with
  | Ext { source; rel_id; data } when not (skipped !chaos_skip.skip_redo r) -> (
    match source with
    | Smethod id -> Registry.sm_redo id (ctx ()) ~rel_id ~data
    | Attachment id -> Registry.at_redo id (ctx ()) ~rel_id ~data
    | Catalog -> ())
  | Clr { undone } -> (
    match (find undone : Log_record.t option) with
    | Some ({ kind = Ext { source = Smethod _ | Attachment _; _ }; _ } as u)
      when not (skipped !chaos_skip.skip_undo u) ->
      undo_ext (ctx ()) catalog u
    | _ -> ())
  | Ext _ | Commit | Abort | Checkpoint _ -> ()
