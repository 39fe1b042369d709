open Dmx_txn
module LR = Dmx_wal.Log_record

let make_mgr () =
  let wal = Dmx_wal.Wal.in_memory () in
  let locks = Dmx_lock.Lock_table.create () in
  (Txn_mgr.create ~wal ~locks (), wal, locks)

let test_begin_commit () =
  let mgr, wal, locks = make_mgr () in
  Txn_mgr.set_undo_dispatch mgr (fun _ ~lsn:_ _ -> ());
  let txn = Txn_mgr.begin_txn mgr in
  Alcotest.(check bool) "active" true (Txn.is_active txn);
  ignore
    (Dmx_lock.Lock_table.acquire locks ~txid:txn.Txn.id
       ~mode:Dmx_lock.Lock_mode.X (Dmx_lock.Lock_table.Relation 1));
  Txn_mgr.commit mgr txn;
  Alcotest.(check bool) "committed" true (txn.Txn.state = Txn.Committed);
  (* locks released at commit *)
  Alcotest.(check int) "no locks" 0
    (List.length (Dmx_lock.Lock_table.locked_resources locks txn.Txn.id));
  (* a transaction that logged nothing is read-only: not in the log *)
  let kinds () =
    Array.to_list (Array.map (fun r -> r.LR.kind) (Dmx_wal.Wal.read_all wal))
  in
  Alcotest.(check bool) "log shape" true (kinds () = []);
  (* one that logged a change enters the log with it and commits with a
     Commit record *)
  let txn = Txn_mgr.begin_txn mgr in
  let lsn = Txn_mgr.log_ext mgr txn ~source:(LR.Smethod 0) ~rel_id:1 ~data:"x" in
  Txn_mgr.commit mgr txn;
  Alcotest.(check bool) "updating log shape" true
    (match kinds () with
    | [ LR.Ext _; LR.Commit ] -> Dmx_wal.Wal.last_lsn wal > lsn
    | _ -> false)

(* A transaction that logged nothing ends with no record, by commit or by
   abort; one whose changes were all rolled back still logs its Abort. *)
let test_unlogged_txn_appends_nothing () =
  let mgr, wal, _ = make_mgr () in
  Txn_mgr.set_undo_dispatch mgr (fun _ ~lsn:_ _ -> ());
  let reader = Txn_mgr.begin_txn mgr in
  Txn_mgr.commit mgr reader;
  Alcotest.(check int64) "read-only commit: no record" 0L
    (Dmx_wal.Wal.last_lsn wal);
  let idle = Txn_mgr.begin_txn mgr in
  Txn_mgr.savepoint mgr idle "sp";
  Txn_mgr.rollback_to mgr idle "sp";
  Txn_mgr.abort mgr idle;
  Alcotest.(check bool) "aborted" true (idle.Txn.state = Txn.Aborted);
  Alcotest.(check int64) "abort of an unlogged txn: no record" 0L
    (Dmx_wal.Wal.last_lsn wal);
  let writer = Txn_mgr.begin_txn mgr in
  let m = Txn_mgr.mark mgr writer in
  ignore
    (Txn_mgr.log_ext mgr writer ~source:(LR.Smethod 0) ~rel_id:1 ~data:"x");
  Txn_mgr.rollback_to_mark mgr writer m;
  Txn_mgr.abort mgr writer;
  Alcotest.(check bool) "a logged txn's abort is logged" true
    (match List.rev (Array.to_list (Dmx_wal.Wal.read_all wal)) with
    | [ { LR.kind = LR.Abort; txid; _ }; { kind = LR.Clr _; _ };
        { kind = LR.Ext _; _ } ] ->
      txid = writer.Txn.id
    | _ -> false)

let test_undo_order_on_abort () =
  let mgr, _, _ = make_mgr () in
  let undone = ref [] in
  Txn_mgr.set_undo_dispatch mgr (fun _ ~lsn:_ r ->
      match r.LR.kind with
      | LR.Ext { data; _ } -> undone := data :: !undone
      | _ -> ());
  let txn = Txn_mgr.begin_txn mgr in
  List.iter
    (fun d ->
      ignore (Txn_mgr.log_ext mgr txn ~source:(LR.Smethod 0) ~rel_id:1 ~data:d))
    [ "a"; "b"; "c" ];
  Txn_mgr.abort mgr txn;
  (* undone newest-first; !undone accumulates reversed -> chronological *)
  Alcotest.(check (list string)) "undo order" [ "a"; "b"; "c" ] !undone;
  Alcotest.(check int) "undo count" 3 (Txn_mgr.stats_undo_count mgr)

let test_partial_rollback_boundaries () =
  let mgr, _, _ = make_mgr () in
  let undone = ref [] in
  Txn_mgr.set_undo_dispatch mgr (fun _ ~lsn:_ r ->
      match r.LR.kind with
      | LR.Ext { data; _ } -> undone := data :: !undone
      | _ -> ());
  let txn = Txn_mgr.begin_txn mgr in
  ignore (Txn_mgr.log_ext mgr txn ~source:(LR.Smethod 0) ~rel_id:1 ~data:"pre");
  Txn_mgr.savepoint mgr txn "sp";
  ignore (Txn_mgr.log_ext mgr txn ~source:(LR.Smethod 0) ~rel_id:1 ~data:"post1");
  ignore (Txn_mgr.log_ext mgr txn ~source:(LR.Smethod 0) ~rel_id:1 ~data:"post2");
  Txn_mgr.rollback_to mgr txn "sp";
  Alcotest.(check (list string)) "only post work undone" [ "post1"; "post2" ]
    !undone;
  Alcotest.(check bool) "still active" true (Txn.is_active txn);
  (* the savepoint survives and is reusable *)
  ignore (Txn_mgr.log_ext mgr txn ~source:(LR.Smethod 0) ~rel_id:1 ~data:"post3");
  undone := [];
  Txn_mgr.rollback_to mgr txn "sp";
  Alcotest.(check (list string)) "reused savepoint" [ "post3" ] !undone;
  (* a full abort now undoes only "pre" (the rest is compensated) *)
  undone := [];
  Txn_mgr.abort mgr txn;
  Alcotest.(check (list string)) "abort undoes the rest" [ "pre" ] !undone

let test_unknown_savepoint () =
  let mgr, _, _ = make_mgr () in
  Txn_mgr.set_undo_dispatch mgr (fun _ ~lsn:_ _ -> ());
  let txn = Txn_mgr.begin_txn mgr in
  match Txn_mgr.rollback_to mgr txn "nope" with
  | exception Not_found -> Txn_mgr.abort mgr txn
  | () -> Alcotest.fail "unknown savepoint accepted"

(* Two savepoints taken with no record between them share a mark LSN;
   rolling back to the older one must still forget the newer one. *)
let test_savepoints_sharing_an_lsn () =
  let mgr, _, _ = make_mgr () in
  Txn_mgr.set_undo_dispatch mgr (fun _ ~lsn:_ _ -> ());
  let txn = Txn_mgr.begin_txn mgr in
  Txn_mgr.savepoint mgr txn "sp1";
  Txn_mgr.savepoint mgr txn "sp2";
  Txn_mgr.rollback_to mgr txn "sp1";
  (match Txn_mgr.rollback_to mgr txn "sp2" with
  | exception Not_found -> ()
  | () -> Alcotest.fail "savepoint established after sp1 survived");
  Txn_mgr.rollback_to mgr txn "sp1";
  Txn_mgr.abort mgr txn

let test_deferred_queues () =
  let mgr, _, _ = make_mgr () in
  Txn_mgr.set_undo_dispatch mgr (fun _ ~lsn:_ _ -> ());
  let log = ref [] in
  let txn = Txn_mgr.begin_txn mgr in
  Txn.defer txn Txn.On_commit (fun () -> log := "commit1" :: !log);
  Txn.defer txn Txn.Before_prepare (fun () -> log := "prep1" :: !log);
  Txn.defer txn Txn.On_commit (fun () -> log := "commit2" :: !log);
  Txn.defer txn Txn.On_abort (fun () -> log := "abort!" :: !log);
  Txn_mgr.commit mgr txn;
  (* prepare actions before commit actions, FIFO within a queue; abort
     actions dropped *)
  Alcotest.(check (list string)) "order" [ "prep1"; "commit1"; "commit2" ]
    (List.rev !log)

let test_before_prepare_veto_aborts () =
  let mgr, _, _ = make_mgr () in
  let undone = ref 0 in
  Txn_mgr.set_undo_dispatch mgr (fun _ ~lsn:_ _ -> incr undone);
  let txn = Txn_mgr.begin_txn mgr in
  ignore (Txn_mgr.log_ext mgr txn ~source:(LR.Smethod 0) ~rel_id:1 ~data:"x");
  let abort_ran = ref false in
  Txn.defer txn Txn.On_abort (fun () -> abort_ran := true);
  Txn.defer txn Txn.Before_prepare (fun () -> failwith "deferred veto");
  (match Txn_mgr.commit mgr txn with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "vetoed commit succeeded");
  Alcotest.(check bool) "aborted" true (txn.Txn.state = Txn.Aborted);
  Alcotest.(check int) "work undone" 1 !undone;
  Alcotest.(check bool) "abort queue drained" true !abort_ran

let test_scan_registration () =
  let mgr, _, _ = make_mgr () in
  Txn_mgr.set_undo_dispatch mgr (fun _ ~lsn:_ _ -> ());
  let txn = Txn_mgr.begin_txn mgr in
  let closed = ref 0 in
  let position = ref 10 in
  let reg =
    {
      Txn.scan_close = (fun () -> incr closed);
      scan_capture =
        (fun () ->
          let saved = !position in
          fun () -> position := saved);
    }
  in
  let _id1 = Txn.register_scan txn reg in
  let id2 = Txn.register_scan txn reg in
  (* savepoint captures both positions *)
  Txn_mgr.savepoint mgr txn "sp";
  position := 99;
  Txn_mgr.rollback_to mgr txn "sp";
  Alcotest.(check int) "position restored" 10 !position;
  (* closing one scan early unregisters it *)
  Txn.unregister_scan txn id2;
  Txn_mgr.commit mgr txn;
  Alcotest.(check int) "remaining scan closed at txn end" 1 !closed

let test_undo_dispatch_missing () =
  let mgr, _, _ = make_mgr () in
  let txn = Txn_mgr.begin_txn mgr in
  ignore (Txn_mgr.log_ext mgr txn ~source:(LR.Smethod 0) ~rel_id:1 ~data:"x");
  match Txn_mgr.abort mgr txn with
  | exception Txn_mgr.Undo_dispatch_missing -> ()
  | () -> Alcotest.fail "abort without an undo dispatcher"

let test_tmap () =
  let k1 : int Tmap.key = Tmap.new_key "k1" in
  let k2 : string Tmap.key = Tmap.new_key "k2" in
  let m = Tmap.add k1 42 (Tmap.add k2 "x" Tmap.empty) in
  Alcotest.(check (option int)) "int key" (Some 42) (Tmap.find k1 m);
  Alcotest.(check (option string)) "string key" (Some "x") (Tmap.find k2 m);
  let m = Tmap.remove k1 m in
  Alcotest.(check (option int)) "removed" None (Tmap.find k1 m);
  Alcotest.(check bool) "other kept" true (Tmap.mem k2 m);
  (* distinct keys of the same type do not collide *)
  let k3 : int Tmap.key = Tmap.new_key "k3" in
  let m = Tmap.add k1 1 (Tmap.add k3 3 Tmap.empty) in
  Alcotest.(check (option int)) "k1" (Some 1) (Tmap.find k1 m);
  Alcotest.(check (option int)) "k3" (Some 3) (Tmap.find k3 m)

let test_txid_continuity_after_restart () =
  let wal = Dmx_wal.Wal.in_memory () in
  let locks = Dmx_lock.Lock_table.create () in
  let mgr = Txn_mgr.create ~wal ~locks () in
  Txn_mgr.set_undo_dispatch mgr (fun _ ~lsn:_ _ -> ());
  let t1 = Txn_mgr.begin_txn mgr in
  let t2 = Txn_mgr.begin_txn mgr in
  ignore (Txn_mgr.log_ext mgr t2 ~source:(LR.Smethod 0) ~rel_id:1 ~data:"x");
  Txn_mgr.commit mgr t1;
  Txn_mgr.commit mgr t2;
  (* a new manager over the same log continues the id sequence past the
     largest txid the log holds *)
  let mgr2 = Txn_mgr.create ~wal ~locks () in
  Txn_mgr.set_undo_dispatch mgr2 (fun _ ~lsn:_ _ -> ());
  let t3 = Txn_mgr.begin_txn mgr2 in
  Alcotest.(check bool) "ids continue" true (t3.Txn.id > t2.Txn.id);
  (* and past a checkpoint's next txid when truncation dropped every
     record that carried one *)
  let t4 = Txn_mgr.begin_txn mgr2 in
  let ck =
    Dmx_wal.Wal.append wal 0
      (LR.Checkpoint { active = []; next_txid = Txn_mgr.next_txid mgr2 })
  in
  ignore (Dmx_wal.Wal.truncate_before wal ck);
  let mgr3 = Txn_mgr.create ~wal ~locks () in
  let t5 = Txn_mgr.begin_txn mgr3 in
  Alcotest.(check bool) "ids continue after truncation" true
    (t5.Txn.id > t4.Txn.id)

let suite =
  [
    Alcotest.test_case "begin/commit lifecycle" `Quick test_begin_commit;
    Alcotest.test_case "an unlogged txn ends with no record" `Quick
      test_unlogged_txn_appends_nothing;
    Alcotest.test_case "abort undoes newest-first" `Quick
      test_undo_order_on_abort;
    Alcotest.test_case "partial rollback boundaries" `Quick
      test_partial_rollback_boundaries;
    Alcotest.test_case "unknown savepoint" `Quick test_unknown_savepoint;
    Alcotest.test_case "savepoints sharing an LSN" `Quick
      test_savepoints_sharing_an_lsn;
    Alcotest.test_case "deferred-action queues" `Quick test_deferred_queues;
    Alcotest.test_case "before-prepare veto aborts" `Quick
      test_before_prepare_veto_aborts;
    Alcotest.test_case "scan registration + capture" `Quick
      test_scan_registration;
    Alcotest.test_case "undo dispatcher required" `Quick
      test_undo_dispatch_missing;
    Alcotest.test_case "typed per-txn state (Tmap)" `Quick test_tmap;
    Alcotest.test_case "txid continuity after restart" `Quick
      test_txid_continuity_after_restart;
  ]
