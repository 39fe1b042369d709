(* Restart recovery: the log-driven undo of loser transactions, including
   extension state (heap pages, index trees, catalog entries). *)
open Dmx_core
open Test_util
module Ddl = Dmx_ddl.Ddl
module Relation = Dmx_core.Relation

let with_dir f = with_temp_dir ~prefix:"dmx_rec" f

let test_committed_survives_crash () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx, desc = (Services.begin_txn services, ()) in
      ignore desc;
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
      ignore (check_ok "b" (Relation.insert ctx desc (emp 2 "b" "eng" 2)));
      Services.commit services ctx;
      Services.simulate_crash services;
      (* reopen: committed state must be intact *)
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "committed rows" 2 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

let test_uncommitted_undone_at_restart () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
      Services.commit services ctx;
      (* loser transaction: delete + insert + update, then crash. Force the
         log and pages so the restart actually has something to undo. *)
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      ignore (check_ok "x" (Relation.insert ctx desc (emp 2 "x" "eng" 2)));
      ignore (check_ok "y" (Relation.insert ctx desc (emp 3 "y" "eng" 3)));
      Dmx_wal.Wal.flush services.Services.wal;
      ignore (Dmx_page.Buffer_pool.flush_all services.Services.bp);
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      (match services.Services.last_recovery with
      | Some a -> Alcotest.(check int) "one loser" 1 (List.length a.losers)
      | None -> Alcotest.fail "no recovery ran");
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      let rows = all_records ctx desc in
      Alcotest.(check int) "losers undone" 1 (List.length rows);
      Alcotest.check record_testable "survivor" (emp 1 "a" "eng" 1)
        (List.hd rows);
      Services.commit services ctx;
      Services.close services)

let test_unflushed_loser_is_noop () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
      Services.commit services ctx;
      (* loser whose pages and log records never reach disk: undo must
         tolerate the never-applied state *)
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      ignore (check_ok "x" (Relation.insert ctx desc (emp 2 "x" "eng" 2)));
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "only committed row" 1 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

let test_index_restored_at_restart () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      check_ok "index"
        (Ddl.create_attachment ctx ~relation:"employee"
           ~attachment_type:"btree_index" ~name:"emp_id"
           ~attrs:[ ("fields", "id") ] ());
      ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
      Services.commit services ctx;
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      ignore (check_ok "b" (Relation.insert ctx desc (emp 2 "b" "eng" 2)));
      Dmx_wal.Wal.flush services.Services.wal;
      ignore (Dmx_page.Buffer_pool.flush_all services.Services.bp);
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      let at_id = Option.get (Registry.attachment_id "btree_index") in
      let instance =
        Option.get
          (Dmx_attach.Btree_index.instance_number desc ~name:"emp_id")
      in
      let lookup k =
        List.length
          (check_ok "lookup"
             (Relation.lookup ctx desc ~attachment_id:at_id ~instance
                ~key:[| vi k |]))
      in
      Alcotest.(check int) "committed entry kept" 1 (lookup 1);
      Alcotest.(check int) "loser entry undone" 0 (lookup 2);
      Services.commit services ctx;
      Services.close services)

let test_uncommitted_ddl_undone () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      ignore
        (check_ok "create"
           (Ddl.create_relation ctx ~name:"committed_rel" ~schema:emp_schema
              ~storage_method:"heap" ()));
      Services.commit services ctx;
      let ctx = Services.begin_txn services in
      ignore
        (check_ok "create2"
           (Ddl.create_relation ctx ~name:"phantom" ~schema:emp_schema
              ~storage_method:"heap" ()));
      Dmx_wal.Wal.flush services.Services.wal;
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      (match Ddl.find_relation ctx "committed_rel" with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "committed relation lost");
      (match Ddl.find_relation ctx "phantom" with
      | Error (Error.No_such_relation _) -> ()
      | _ -> Alcotest.fail "uncommitted relation survived restart");
      Services.commit services ctx;
      Services.close services)

(* An aborted DDL stays undone across a crash even when another commit saved
   the catalog snapshot while the DDL was in flight: catalog undos are not
   redone, so the abort itself must save the snapshot. *)
let test_aborted_ddl_after_snapshot () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ddl = Services.begin_txn services in
      ignore
        (check_ok "create"
           (Ddl.create_relation ddl ~name:"phantom" ~schema:emp_schema
              ~storage_method:"heap" ()));
      (* a commit saves the snapshot, phantom included *)
      let other = Services.begin_txn services in
      ignore
        (check_ok "create other"
           (Ddl.create_relation other ~name:"kept" ~schema:emp_schema
              ~storage_method:"heap" ()));
      Services.commit services other;
      Services.abort services ddl;
      Dmx_wal.Wal.flush services.Services.wal;
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      (match Ddl.find_relation ctx "kept" with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "committed relation lost");
      (match Ddl.find_relation ctx "phantom" with
      | Error (Error.No_such_relation _) -> ()
      | _ -> Alcotest.fail "aborted relation survived restart");
      Services.commit services ctx;
      Services.close services)

(* A loser's drop must not hide committed work from redo: the row below
   committed but never reached the store, and the snapshot saved after the
   drop lacks the relation. Restart restores the relation before it
   redoes the row. *)
let test_loser_drop_keeps_committed_rows () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      List.iter
        (fun name ->
          ignore
            (check_ok "create"
               (Ddl.create_relation ctx ~name ~schema:emp_schema
                  ~storage_method:"heap" ())))
        [ "employee"; "other" ];
      Services.commit services ctx;
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
      Services.commit services ctx;
      let dropper = Services.begin_txn services in
      check_ok "drop" (Ddl.drop_relation dropper ~name:"employee");
      (* a commit that dirties the catalog saves it without "employee" *)
      let ctx = Services.begin_txn services in
      let other = check_ok "find other" (Ddl.find_relation ctx "other") in
      ignore (check_ok "b" (Relation.insert ctx other (emp 2 "b" "eng" 2)));
      Services.commit services ctx;
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "committed row back" 1 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

let test_torn_log_tail () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
      Services.commit services ctx;
      (* second transaction commits, then its commit record is torn off the
         log tail: the reopen must truncate the torn frame and treat the
         transaction as a loser. The tear zeroes the frame's checksum, which
         is not 0 (zeroing bytes that were zeros tears nothing). *)
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      ignore (check_ok "b" (Relation.insert ctx desc (emp 2 "b" "eng" 2)));
      Services.commit services ctx;
      Dmx_wal.Wal.simulate_torn_tail services.Services.wal
        ~bytes_to_truncate:4;
      Dmx_page.Buffer_pool.drop_cache services.Services.bp;
      Dmx_wal.Wal.abandon services.Services.wal;
      Dmx_page.Disk.close services.Services.disk;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      let rows = all_records ctx desc in
      Alcotest.(check int) "torn commit rolled back" 1 (List.length rows);
      Alcotest.check record_testable "first txn survived" (emp 1 "a" "eng" 1)
        (List.hd rows);
      Services.commit services ctx;
      Services.close services)

let test_clean_shutdown_reopen () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
      Services.commit services ctx;
      Services.close services;
      let services = fresh_services ~dir () in
      (match services.Services.last_recovery with
      | Some a -> Alcotest.(check int) "no losers" 0 (List.length a.losers)
      | None -> Alcotest.fail "no analysis");
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "row back" 1 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

let test_sealed_readonly_persists () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"pub" ~schema:emp_schema
             ~storage_method:"readonly" ())
      in
      ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
      Dmx_smethod.Readonly.seal ctx desc;
      Services.commit services ctx;
      Services.close services;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "pub") in
      Alcotest.(check bool) "still sealed" true
        (Dmx_smethod.Readonly.is_sealed desc);
      (match Relation.insert ctx desc (emp 2 "late" "x" 0) with
      | Error (Error.Read_only _) -> ()
      | _ -> Alcotest.fail "sealed relation accepted insert after restart");
      Alcotest.(check int) "published row intact" 1 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

(* A stats delta that reached the log but never the disk must not be
   reversed at restart: a loser's insert logged after the last checkpoint
   and hardened by an eviction (log flush, then an unsynced page write) is
   gone from the store after power loss, so restart must neither negate it
   nor leave the loser's earlier, checkpointed delta in place. *)
let test_stats_delta_not_on_disk () =
  with_dir (fun dir ->
      ignore (Lazy.force registered);
      let fd = Dmx_page.Fault_disk.create () in
      let open_services () =
        Services.setup ~dir ~disk:(Dmx_page.Fault_disk.disk fd)
          ~pool_capacity:128 ()
      in
      let services = open_services () in
      let ctx = Services.begin_txn services in
      ignore
        (check_ok "create"
           (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
              ~storage_method:"heap" ()));
      check_ok "stats"
        (Ddl.create_attachment ctx ~relation:"employee"
           ~attachment_type:"stats" ~name:"sal"
           ~attrs:[ ("fields", "salary") ] ());
      Services.commit services ctx;
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      List.iter
        (fun i ->
          ignore (check_ok "row" (Relation.insert ctx desc (emp i "w" "eng" 100))))
        [ 1; 2; 3 ];
      Services.commit services ctx;
      let loser = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation loser "employee") in
      let key4 =
        check_ok "row 4" (Relation.insert loser desc (emp 4 "l" "eng" 1000))
      in
      ignore (Services.checkpoint services);
      ignore
        (check_ok "row 5" (Relation.insert loser desc (emp 5 "l" "eng" 10000)));
      (match key4 with
      | Dmx_value.Record_key.Rid { page; _ } ->
        Dmx_page.Buffer_pool.flush_page services.Services.bp page
      | Dmx_value.Record_key.Fields _ -> Alcotest.fail "heap key is not a RID");
      Services.simulate_crash services;
      Dmx_page.Fault_disk.crash fd;
      let services = open_services () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      (match Dmx_attach.Stats.get ctx desc ~name:"sal" with
      | Some s ->
        Alcotest.(check int) "live count" 3 s.Dmx_attach.Stats.live_count;
        let sum =
          match s.Dmx_attach.Stats.per_field with
          | [ f ] -> f.Dmx_attach.Stats.sum
          | _ -> Alcotest.fail "one tracked field"
        in
        Alcotest.(check int64) "salary sum" 300L sum
      | None -> Alcotest.fail "stats instance lost");
      Alcotest.(check int) "committed rows" 3 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

(* Redo meets a heap page newer than a record it repeats: A's insert is
   redone onto a page where B has since grown into A's freed bytes, so A's
   image no longer fits. The record that emptied A's slot follows in the
   log, so the insert counts as not applied and restart reopens. *)
let test_heap_redo_over_newer_page () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let row i n = emp i (String.make n 'r') "d" i in
      let step f =
        let ctx = Services.begin_txn services in
        let r = f ctx (check_ok "find" (Ddl.find_relation ctx "t")) in
        Services.commit services ctx;
        r
      in
      let ctx = Services.begin_txn services in
      ignore
        (check_ok "create"
           (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
              ~storage_method:"heap" ()));
      Services.commit services ctx;
      let insert what row =
        step (fun ctx desc -> check_ok what (Relation.insert ctx desc row))
      in
      let kb = insert "B" (row 2 1500) in
      ignore (Services.checkpoint services);
      let ka = insert "A" (row 1 1500) in
      step (fun ctx desc ->
          ignore (check_ok "delete A" (Relation.delete ctx desc ka)));
      let kb' =
        step (fun ctx desc ->
            check_ok "grow B" (Relation.update ctx desc kb (row 2 2600)))
      in
      Alcotest.(check bool) "B grew in place" true
        (Dmx_value.Record_key.equal kb kb');
      (match kb with
      | Dmx_value.Record_key.Rid { page; _ } ->
        Dmx_page.Buffer_pool.flush_page services.Services.bp page
      | Dmx_value.Record_key.Fields _ -> Alcotest.fail "heap key is not a RID");
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "t") in
      Alcotest.(check (list int)) "B alone, grown" [ 2600 ]
        (List.map
           (fun r ->
             String.length (Option.get (Dmx_value.Value.to_string_opt r.(1))))
           (all_records ctx desc));
      Services.commit services ctx;
      Services.close services)

(* A slot's history walks back past a later state: A is inserted small,
   grown to 1,500 bytes and deleted, then B grows into A's bytes, and the
   page reaches the store before the crash. Redo re-applies A's small
   insert to the emptied slot (its state check matches), and A's grow no
   longer fits. Skipping it would leave A's small row behind, a committed
   delete lost. Restart must not open with A: it either stops or holds B
   alone. *)
let test_heap_redo_walked_back_slot () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let row i n = emp i (String.make n 'r') "d" i in
      let step f =
        let ctx = Services.begin_txn services in
        let r = f ctx (check_ok "find" (Ddl.find_relation ctx "t")) in
        Services.commit services ctx;
        r
      in
      let ctx = Services.begin_txn services in
      ignore
        (check_ok "create"
           (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
              ~storage_method:"heap" ()));
      Services.commit services ctx;
      let kb =
        step (fun ctx desc -> check_ok "B" (Relation.insert ctx desc (row 2 1500)))
      in
      ignore (Services.checkpoint services);
      let ka =
        step (fun ctx desc -> check_ok "A" (Relation.insert ctx desc (row 1 10)))
      in
      let grow what key n =
        step (fun ctx desc ->
            let key' = check_ok what (Relation.update ctx desc key (row 0 n)) in
            Alcotest.(check bool) (what ^ " in place") true
              (Dmx_value.Record_key.equal key key'))
      in
      grow "grow A" ka 1500;
      step (fun ctx desc ->
          ignore (check_ok "delete A" (Relation.delete ctx desc ka)));
      grow "grow B" kb 2600;
      (match kb with
      | Dmx_value.Record_key.Rid { page; _ } ->
        Dmx_page.Buffer_pool.flush_page services.Services.bp page
      | Dmx_value.Record_key.Fields _ -> Alcotest.fail "heap key is not a RID");
      Services.simulate_crash services;
      match fresh_services ~dir () with
      | exception Dmx_core.Error.Error (Dmx_core.Error.Internal _) -> ()
      | services ->
        let ctx = Services.begin_txn services in
        let desc = check_ok "find" (Ddl.find_relation ctx "t") in
        Alcotest.(check (list int)) "B alone, grown" [ 2600 ]
          (List.map
             (fun r ->
               String.length (Option.get (Dmx_value.Value.to_string_opt r.(1))))
             (all_records ctx desc));
        Services.commit services ctx;
        Services.close services)

(* A transaction that logged nothing commits with no Commit record and no
   log flush. It never entered the log, so restart finds no loser even with
   a writer's records durable around it, and the committed rows stay. *)
let test_read_only_commit_then_crash () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
      Services.commit services ctx;
      let reader = Services.begin_txn services in
      (* a writer's commit hardens everything logged while the reader ran *)
      let writer = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation writer "employee") in
      ignore (check_ok "b" (Relation.insert writer desc (emp 2 "b" "eng" 2)));
      Services.commit services writer;
      let wal = services.Services.wal in
      let before = Dmx_wal.Wal.last_lsn wal in
      Alcotest.(check int) "reader sees the rows" 2 (count_records reader desc);
      Services.commit services reader;
      Alcotest.(check int64) "no Commit record" before (Dmx_wal.Wal.last_lsn wal);
      Alcotest.(check int64) "no log flush" before (Dmx_wal.Wal.flushed_lsn wal);
      let reader_id = reader.Ctx.txn.Dmx_txn.Txn.id in
      Alcotest.(check int) "the reader has no record" 0
        (Array.fold_left
           (fun n (r : Dmx_wal.Log_record.t) ->
             if r.txid = reader_id then n + 1 else n)
           0 (Dmx_wal.Wal.read_all wal));
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      (match services.Services.last_recovery with
      | Some a ->
        Alcotest.(check (list int)) "no loser" [] a.losers;
        Alcotest.(check int) "nothing to undo" 0 (List.length a.undo_work)
      | None -> Alcotest.fail "no recovery ran");
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "committed rows" 2 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

(* A loser's catalog change that a savepoint rollback compensated can still
   be in the catalog snapshot: another transaction's commit saved it in
   between. Restart undoes the loser's catalog records again, compensated
   or not. *)
let test_compensated_catalog_record_undone () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      Services.commit services ctx;
      let loser = Services.begin_txn services in
      Services.savepoint loser "sp";
      ignore
        (check_ok "ddl"
           (Ddl.create_relation loser ~name:"scratch" ~schema:emp_schema
              ~storage_method:"heap" ()));
      let writer = Services.begin_txn services in
      ignore (check_ok "w" (Relation.insert writer desc (emp 1 "a" "eng" 1)));
      Services.commit services writer;
      Services.rollback_to loser "sp";
      Dmx_wal.Wal.flush services.Services.wal;
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      (match Ddl.find_relation ctx "scratch" with
      | Ok _ -> Alcotest.fail "the loser's relation survived restart"
      | Error _ -> ());
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "committed row" 1 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

let check_ascending what ids =
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool)
    (Fmt.str "%s: %a" what Fmt.(list ~sep:sp int) ids)
    true (ascending ids)

(* A clean close checkpoints and truncates every record that carried a txid;
   the next session's ids still continue from the Checkpoint record's
   [next_txid]. *)
let test_txids_across_clean_sessions () =
  with_dir (fun dir ->
      ignore (Lazy.force registered);
      let ids = ref [] in
      for session = 1 to 3 do
        let db = Dmx_db.Db.open_database ~dir () in
        let ctx = Dmx_db.Db.begin_txn db in
        if session = 1 then
          ignore
            (check_ok "create"
               (Dmx_db.Db.create_relation db ctx ~name:"employee"
                  ~schema:emp_schema ()));
        ignore
          (check_ok "insert"
             (Dmx_db.Db.insert db ctx ~relation:"employee"
                (emp session "a" "eng" 1)));
        ids := ctx.Ctx.txn.Dmx_txn.Txn.id :: !ids;
        Dmx_db.Db.commit db ctx;
        (* a read-only transaction takes an id too *)
        let ctx = Dmx_db.Db.begin_txn db in
        ids := ctx.Ctx.txn.Dmx_txn.Txn.id :: !ids;
        Dmx_db.Db.commit db ctx;
        Dmx_db.Db.close db
      done;
      check_ascending "ids across sessions" (List.rev !ids))

(* A checkpoint with no transaction running truncates the log past the
   largest txid; after a crash, restart still issues larger ids. *)
let test_txids_across_crash_after_truncation () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ids = ref [] in
      let ctx = Services.begin_txn services in
      ids := ctx.Ctx.txn.Dmx_txn.Txn.id :: !ids;
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      Services.commit services ctx;
      for i = 1 to 3 do
        let ctx = Services.begin_txn services in
        ids := ctx.Ctx.txn.Dmx_txn.Txn.id :: !ids;
        ignore (check_ok "ins" (Relation.insert ctx desc (emp i "a" "eng" 1)));
        Services.commit services ctx
      done;
      let largest = List.hd !ids in
      ignore (Services.checkpoint services);
      let wal = services.Services.wal in
      Alcotest.(check int) "no record carries a txid" 0
        (Array.fold_left
           (fun n (r : Dmx_wal.Log_record.t) -> max n r.txid)
           0 (Dmx_wal.Wal.read_all wal));
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      Alcotest.(check bool) "ids continue past the truncation" true
        (ctx.Ctx.txn.Dmx_txn.Txn.id > largest);
      ids := ctx.Ctx.txn.Dmx_txn.Txn.id :: !ids;
      Services.commit services ctx;
      Services.close services;
      check_ascending "ids" (List.rev !ids))


(* ~1 KB records: three to a 4 KB heap page *)
let wide i = emp i (String.make 1000 'w') "d" i

let heap_pages ctx desc =
  Array.to_list
    (Dmx_smethod.Heap.data_pages ctx (Dmx_smethod.Heap.head_of desc))

(* Pages a committed transaction added after the store's last sync vanish
   with a power loss: the directory append that listed each one and the
   records on it are in the log, and restart grows the store back to every
   page the log names before redo fills them again. *)
let test_directory_pages_after_sync () =
  with_dir (fun dir ->
      ignore (Lazy.force registered);
      let fd = Dmx_page.Fault_disk.create () in
      let open_services () =
        Services.setup ~dir ~disk:(Dmx_page.Fault_disk.disk fd)
          ~pool_capacity:128 ()
      in
      let services = open_services () in
      let ctx = Services.begin_txn services in
      ignore
        (check_ok "create"
           (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
              ~storage_method:"heap" ()));
      Services.commit services ctx;
      let synced = Dmx_page.Fault_disk.durable_page_count fd in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      ignore
        (check_ok "rows" (Relation.insert_many ctx desc (Array.init 30 wide)));
      let listed = heap_pages ctx desc in
      Services.commit services ctx;
      Alcotest.(check bool) "every data page postdates the sync" true
        (List.for_all (fun p -> p > synced) listed && List.length listed >= 10);
      Services.simulate_crash services;
      Dmx_page.Fault_disk.crash fd;
      Alcotest.(check int) "the power loss dropped them" synced
        (Dmx_page.Fault_disk.durable_page_count fd);
      let services = open_services () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check (list int)) "the directory lists them again" listed
        (heap_pages ctx desc);
      Alcotest.(check (list int)) "with their records"
        (List.init 30 Fun.id)
        (List.map
           (fun r -> match r.(0) with Dmx_value.Value.Int i -> Int64.to_int i | _ -> -1)
           (all_records ctx desc));
      Services.commit services ctx;
      Services.close services)

(* A page a loser added stays listed and empty: a directory append is not
   undone, the loser's records on the page are. *)
let test_loser_page_listed_empty () =
  with_dir (fun dir ->
      ignore (Lazy.force registered);
      let fd = Dmx_page.Fault_disk.create () in
      let open_services () =
        Services.setup ~dir ~disk:(Dmx_page.Fault_disk.disk fd)
          ~pool_capacity:128 ()
      in
      let services = open_services () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      ignore (check_ok "row" (Relation.insert ctx desc (wide 0)));
      Services.commit services ctx;
      let committed = heap_pages ctx desc in
      let loser = Services.begin_txn services in
      ignore
        (check_ok "loser rows"
           (Relation.insert_many loser desc (Array.init 12 (fun i -> wide (i + 1)))));
      let listed = heap_pages loser desc in
      Dmx_wal.Wal.flush services.Services.wal;
      Services.simulate_crash services;
      Dmx_page.Fault_disk.crash fd;
      let services = open_services () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check (list int)) "the loser's pages are listed" listed
        (heap_pages ctx desc);
      Alcotest.(check bool) "the loser added pages" true
        (List.length listed > List.length committed);
      Alcotest.(check int) "and empty" 1 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

(* A DML commit writes no catalog snapshot: the descriptors of the heap,
   [btree] and [readonly] change only at DDL. The snapshot counter and the
   file's bytes stay as the DDL commit left them, and the catalog is not
   dirty. *)
let test_dml_writes_no_snapshot () =
  let module Metrics = Dmx_obs.Metrics in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let snapshots = Metrics.counter "catalog.snapshots" in
      let path = Filename.concat dir "catalog.dmx" in
      let read () = In_channel.with_open_bin path In_channel.input_all in
      let ctx = Services.begin_txn services in
      let methods = [ ("heap", []); ("btree", [ ("key", "id") ]); ("readonly", []) ] in
      List.iter
        (fun (storage_method, attrs) ->
          ignore
            (check_ok "create"
               (Ddl.create_relation ctx ~name:storage_method ~schema:emp_schema
                  ~storage_method ~attrs ())))
        methods;
      let s0 = Metrics.value snapshots in
      Services.commit services ctx;
      Alcotest.(check int) "the DDL commit saves one snapshot" (s0 + 1)
        (Metrics.value snapshots);
      let bytes = read () and s1 = Metrics.value snapshots in
      let unchanged what =
        Alcotest.(check bool) (what ^ ": catalog clean") false
          (Dmx_catalog.Catalog.dirty services.Services.catalog);
        Alcotest.(check int) (what ^ ": no snapshot") s1 (Metrics.value snapshots);
        Alcotest.(check bool) (what ^ ": file unchanged") true (read () = bytes)
      in
      List.iter
        (fun (storage_method, _) ->
          let ctx = Services.begin_txn services in
          let desc = check_ok "find" (Ddl.find_relation ctx storage_method) in
          let key = check_ok "insert" (Relation.insert ctx desc (emp 1 "a" "d" 1)) in
          Services.commit services ctx;
          unchanged (storage_method ^ " insert");
          let ctx = Services.begin_txn services in
          (match Relation.delete ctx desc key with
          | Ok _ -> Services.commit services ctx
          | Error (Error.Read_only _) when storage_method = "readonly" ->
            Services.abort services ctx
          | Error e -> Alcotest.failf "delete: %a" Error.pp e);
          unchanged (storage_method ^ " delete"))
        methods;
      Services.close services)

let suite =
  [
    Alcotest.test_case "committed state survives crash" `Quick
      test_committed_survives_crash;
    Alcotest.test_case "sealed read-only relation persists" `Quick
      test_sealed_readonly_persists;
    Alcotest.test_case "losers undone at restart" `Quick
      test_uncommitted_undone_at_restart;
    Alcotest.test_case "unflushed loser is a no-op" `Quick
      test_unflushed_loser_is_noop;
    Alcotest.test_case "index entries undone at restart" `Quick
      test_index_restored_at_restart;
    Alcotest.test_case "uncommitted DDL undone" `Quick
      test_uncommitted_ddl_undone;
    Alcotest.test_case "aborted DDL stays undone after a snapshot" `Quick
      test_aborted_ddl_after_snapshot;
    Alcotest.test_case "a loser's drop keeps committed rows" `Quick
      test_loser_drop_keeps_committed_rows;
    Alcotest.test_case "torn log tail truncated" `Quick test_torn_log_tail;
    Alcotest.test_case "clean shutdown reopen" `Quick
      test_clean_shutdown_reopen;
    Alcotest.test_case "stats delta lost with its page is not reversed"
      `Quick test_stats_delta_not_on_disk;
    Alcotest.test_case "heap redo over a newer page" `Quick
      test_heap_redo_over_newer_page;
    Alcotest.test_case "heap redo over a walked-back slot" `Quick
      test_heap_redo_walked_back_slot;
    Alcotest.test_case "crash after a read-only commit" `Quick
      test_read_only_commit_then_crash;
    Alcotest.test_case "compensated catalog record undone again" `Quick
      test_compensated_catalog_record_undone;
    Alcotest.test_case "txids increase across clean sessions" `Quick
      test_txids_across_clean_sessions;
    Alcotest.test_case "txids increase across crash + truncation" `Quick
      test_txids_across_crash_after_truncation;
    Alcotest.test_case "heap pages added after the last sync come back"
      `Quick test_directory_pages_after_sync;
    Alcotest.test_case "a loser's heap page stays listed and empty" `Quick
      test_loser_page_listed_empty;
    Alcotest.test_case "a DML commit writes no catalog snapshot" `Quick
      test_dml_writes_no_snapshot;
  ]
