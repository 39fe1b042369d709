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

(* The newest checkpoint: where analysis and redo start, the transactions
   it saw running with logged records, and the next txid it recorded. With
   no checkpoint the scan starts at the first retained record — the log may
   have a truncated prefix (base LSN > 0), which is only legal when every
   dropped record belonged to a finished transaction, so treating the
   retained suffix as the whole history is sound. *)
let seed wal =
  let first = (Int64.add (Wal.base_lsn wal) 1L, [], 1) in
  match Wal.last_checkpoint_lsn wal with
  | 0L -> first
  | l -> begin
    match (Wal.read wal l).Log_record.kind with
    | Checkpoint { active; next_txid } -> (l, active, next_txid)
    | Commit | Abort | Ext _ | Clr _ -> first
  end

(* Every record before the newest checkpoint belongs to a transaction that
   began before it, so its txid is below the checkpoint's [next_txid]: the
   records from the checkpoint on are the only ones that can raise it. *)
let next_txid wal =
  let start, _, next = seed wal in
  let next = ref next in
  Wal.iter_from wal start (fun r ->
      if r.Log_record.txid >= !next then next := r.txid + 1);
  !next

(* A transaction is started by its first record: an [Ext] or [Clr] in the
   scan window, or a place in the checkpoint's active list when its first
   record precedes the window. *)
let analyze wal =
  let seed_start, seed_active, _ = seed wal in
  let started = ref (Iset.of_list seed_active) in
  let finished = ref Iset.empty in
  let winners = ref Iset.empty in
  let scanned = ref 0 in
  Wal.iter_from wal seed_start (fun r ->
      incr scanned;
      match r.Log_record.kind with
      | Commit ->
        finished := Iset.add r.txid !finished;
        winners := Iset.add r.txid !winners
      | Abort -> finished := Iset.add r.txid !finished
      | Clr _ | Ext _ -> started := Iset.add r.txid !started
      | Checkpoint _ -> ());
  let losers = Iset.diff !started !finished in
  (* A loser's worklist is its uncompensated chain: the redo pass repeats
     every durable Clr's undo before the undo pass runs, so a compensated
     record is already reversed. Catalog records stay, compensated or not,
     so the rule reads the chain without their Clrs: their undos are not
     repeated (the catalog snapshot is their redo), and catalog undo
     restores state, so undoing one again is harmless. *)
  let catalog_clr (r : Log_record.t) =
    match r.kind with
    | Clr { undone } when undone > Wal.base_lsn wal -> (
      match (Wal.read wal undone).kind with
      | Ext { source = Catalog; _ } -> true
      | _ -> false)
    | _ -> false
  in
  let undo_work =
    Iset.fold
      (fun txid acc ->
        let chain = Wal.records_of_txn wal txid in
        (txid, uncompensated (List.filter (Fun.negate catalog_clr) chain))
        :: acc)
      losers []
  in
  {
    winners = Iset.elements !winners;
    losers = Iset.elements losers;
    undo_work;
    restart_lsn = seed_start;
    scanned = !scanned;
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
