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
      Dmx_page.Buffer_pool.flush_all services.Services.bp;
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
      Dmx_page.Buffer_pool.flush_all services.Services.bp;
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
         transaction as a loser *)
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      ignore (check_ok "b" (Relation.insert ctx desc (emp 2 "b" "eng" 2)));
      Services.commit services ctx;
      Dmx_wal.Wal.simulate_torn_tail services.Services.wal
        ~bytes_to_truncate:3;
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
    Alcotest.test_case "torn log tail truncated" `Quick test_torn_log_tail;
    Alcotest.test_case "clean shutdown reopen" `Quick
      test_clean_shutdown_reopen;
  ]
