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

(* Restart analysis seeds from the last checkpoint when one exists: the
   scan starts at the [Checkpoint] record, and its active list pre-loads
   [started] for transactions whose Begin precedes the scan window. Without
   a checkpoint the scan starts at the first retained record — the log may
   have a truncated prefix (base LSN > 0), which is only legal when every
   dropped record belonged to a finished transaction, so treating the
   retained suffix as the whole history is sound. *)
let analyze wal =
  let seed_start, seed_active =
    match Wal.last_checkpoint_lsn wal with
    | 0L -> (Int64.add (Wal.base_lsn wal) 1L, [])
    | l -> begin
      match (Wal.read wal l).Log_record.kind with
      | Checkpoint { active } -> (l, active)
      | _ -> (Int64.add (Wal.base_lsn wal) 1L, [])
    end
  in
  let started = ref (Iset.of_list seed_active) in
  let finished = ref Iset.empty in
  let winners = ref Iset.empty in
  let scanned = ref 0 in
  Wal.iter_from wal seed_start (fun r ->
      incr scanned;
      match r.Log_record.kind with
      | Begin -> started := Iset.add r.txid !started
      | Commit ->
        finished := Iset.add r.txid !finished;
        winners := Iset.add r.txid !winners
      | Abort -> finished := Iset.add r.txid !finished
      | Clr _ | Ext _ -> started := Iset.add r.txid !started
      | Checkpoint _ -> ());
  let losers = Iset.diff !started !finished in
  (* A loser's worklist is its Ext chain minus the records a Clr
     compensates: the redo pass repeats every durable Clr's undo before the
     undo pass runs, so a compensated record is already reversed. Catalog
     records stay, compensated or not: their undos are not repeated (the
     catalog snapshot is their redo), and catalog undo restores state, so
     undoing one again is harmless. *)
  let undo_work =
    Iset.fold
      (fun txid acc ->
        let chain = Wal.records_of_txn wal txid in
        let compensated =
          List.fold_left
            (fun acc (r : Log_record.t) ->
              match r.kind with
              | Clr { undone } -> Lsn_set.add undone acc
              | _ -> acc)
            Lsn_set.empty chain
        in
        let work =
          List.filter
            (fun (r : Log_record.t) ->
              match r.kind with
              | Ext { source = Catalog; _ } -> true
              | Ext _ -> not (Lsn_set.mem r.lsn compensated)
              | Begin | Commit | Abort | Clr _ | Checkpoint _ -> false)
            chain
        in
        (txid, work) :: acc)
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
