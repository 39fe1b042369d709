type analysis = {
  winners : Log_record.txid list;
  losers : Log_record.txid list;
  undo_work : (Log_record.txid * Log_record.t list) list;
  restart_lsn : Log_record.lsn;
  scanned : int;
  redo_records : int;
  redo_applied : int;
}

module Iset = Set.Make (Int)
module Lsn_set = Set.Make (Int64)

(* The records of a chain still to undo: its [Ext] records that no [Clr]
   in the chain compensates, in the chain's order. Rollback, restart and
   [dmx_txns] all count undo work with this one rule. *)
let uncompensated chain =
  let undone =
    List.fold_left
      (fun acc (r : Log_record.t) ->
        match r.kind with Clr { undone } -> Lsn_set.add undone acc | _ -> acc)
      Lsn_set.empty chain
  in
  List.filter
    (fun (r : Log_record.t) ->
      match r.kind with
      | Ext _ -> not (Lsn_set.mem r.lsn undone)
      | Commit | Abort | Clr _ | Checkpoint _ -> false)
    chain

let find ~base (log : Log_record.t array) lsn =
  let i = Int64.to_int (Int64.sub lsn base) - 1 in
  if i >= 0 && i < Array.length log then Some log.(i) else None

(* The newest checkpoint: where analysis and redo start, and the
   transactions it saw running with logged records. With no checkpoint the
   scan starts at the first retained record — the log may have a truncated
   prefix (base LSN > 0), which is only legal when every dropped record
   belonged to a finished transaction, so treating the retained suffix as
   the whole history is sound. *)
let seed ~base (log : Log_record.t array) =
  let rec newest i =
    if i < 0 then (Int64.add base 1L, [])
    else
      match log.(i).kind with
      | Checkpoint { active; _ } -> (log.(i).lsn, active)
      | Commit | Abort | Ext _ | Clr _ -> newest (i - 1)
  in
  newest (Array.length log - 1)

(* A transaction is started by its first record: an [Ext] or [Clr] in the
   scan window, or a place in the checkpoint's active list when its first
   record precedes the window. A loser's chain is read from the whole
   decode: truncation keeps every record of a transaction active at the
   checkpoint. *)
let analyze ~base log =
  let seed_start, seed_active = seed ~base log in
  let started = ref (Iset.of_list seed_active) in
  let finished = ref Iset.empty in
  let winners = ref Iset.empty in
  let from = Int64.to_int (Int64.sub seed_start base) - 1 in
  for i = from to Array.length log - 1 do
    let r = log.(i) in
    match r.Log_record.kind with
    | Commit ->
      finished := Iset.add r.txid !finished;
      winners := Iset.add r.txid !winners
    | Abort -> finished := Iset.add r.txid !finished
    | Clr _ | Ext _ -> started := Iset.add r.txid !started
    | Checkpoint _ -> ()
  done;
  let losers = Iset.diff !started !finished in
  (* A loser's worklist is its uncompensated chain: the redo pass repeats
     every durable Clr's undo before the undo pass runs, so a compensated
     record is already reversed. Catalog records stay, compensated or not,
     so the rule reads the chain without their Clrs: their undos are not
     repeated (the catalog snapshot is their redo), and catalog undo
     restores state, so undoing one again is harmless. *)
  let catalog_clr (r : Log_record.t) =
    match r.kind with
    | Clr { undone } -> (
      match find ~base log undone with
      | Some { kind = Ext { source = Catalog; _ }; _ } -> true
      | _ -> false)
    | _ -> false
  in
  let chains = Hashtbl.create 64 in
  Array.iter
    (fun (r : Log_record.t) ->
      if Iset.mem r.txid losers && not (catalog_clr r) then
        Hashtbl.add chains r.txid r)
    log;
  (* [find_all] returns a key's bindings newest first: the chain's order *)
  let undo_work =
    Iset.fold
      (fun txid acc ->
        (txid, uncompensated (Hashtbl.find_all chains txid)) :: acc)
      losers []
  in
  {
    winners = Iset.elements !winners;
    losers = Iset.elements losers;
    undo_work;
    restart_lsn = seed_start;
    scanned = Array.length log - from;
    redo_records = 0;
    redo_applied = 0;
  }

let pp ppf a =
  Fmt.pf ppf
    "winners=[%a] losers=[%a] undo=%d records (from %Ld, %d scanned, %d \
     redone, %d applied)"
    Fmt.(list ~sep:(any ",") int)
    a.winners
    Fmt.(list ~sep:(any ",") int)
    a.losers
    (List.fold_left (fun n (_, rs) -> n + List.length rs) 0 a.undo_work)
    a.restart_lsn a.scanned a.redo_records a.redo_applied
