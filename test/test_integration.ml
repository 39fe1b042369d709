(* End-to-end tests of the extension architecture: two-step modification
   dispatch, attached procedures, veto -> partial rollback, savepoints,
   deferred actions, cascading modifications. *)
open Dmx_value
open Dmx_core
open Test_util
module Ddl = Dmx_ddl.Ddl
module Relation = Dmx_core.Relation

let setup_emp ?(storage_method = "heap") ?(attrs = []) services =
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create emp"
      (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
         ~storage_method ~attrs ())
  in
  (ctx, desc)

let insert_emps ctx desc rows =
  List.map
    (fun (i, n, d, s) ->
      check_ok "insert" (Relation.insert ctx desc (emp i n d s)))
    rows

let base_rows =
  [
    (1, "alice", "eng", 120);
    (2, "bob", "eng", 100);
    (3, "carol", "ops", 90);
    (4, "dave", "hr", 80);
  ]

(* ---- heap + b-tree index ---- *)

let test_heap_btree_index () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  check_ok "index"
    (Ddl.create_attachment ctx ~relation:"employee"
       ~attachment_type:"btree_index" ~name:"emp_dept"
       ~attrs:[ ("fields", "dept") ] ());
  let keys = insert_emps ctx desc base_rows in
  Alcotest.(check int) "count" 4 (count_records ctx desc);
  (* direct-by-key access via the attachment: input key -> record keys *)
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  let instance =
    Option.get (Dmx_attach.Btree_index.instance_number desc ~name:"emp_dept")
  in
  let hits =
    check_ok "lookup"
      (Relation.lookup ctx desc ~attachment_id:at_id ~instance
         ~key:[| vs "eng" |])
  in
  Alcotest.(check int) "two eng" 2 (List.length hits);
  (* each returned record key fetches the record via the storage method *)
  List.iter
    (fun key ->
      match check_ok "fetch" (Relation.fetch ctx desc key ()) with
      | Some r -> Alcotest.check value_testable "dept" (vs "eng") r.(2)
      | None -> Alcotest.fail "dangling index entry")
    hits;
  (* delete maintains the index *)
  ignore (check_ok "delete" (Relation.delete ctx desc (List.nth keys 0)));
  let hits =
    check_ok "lookup2"
      (Relation.lookup ctx desc ~attachment_id:at_id ~instance
         ~key:[| vs "eng" |])
  in
  Alcotest.(check int) "one eng left" 1 (List.length hits);
  Services.commit services ctx

let test_unique_index_veto () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  check_ok "unique index"
    (Ddl.create_attachment ctx ~relation:"employee"
       ~attachment_type:"btree_index" ~name:"emp_pk"
       ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
  ignore (insert_emps ctx desc base_rows);
  (* duplicate id: the unique index vetoes; the heap insert must be undone *)
  (match Relation.insert ctx desc (emp 1 "evil" "eng" 1) with
  | Error (Error.Veto _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "duplicate accepted");
  Alcotest.(check int) "storage change undone" 4 (count_records ctx desc);
  (* and the transaction is still usable (partial rollback, not abort) *)
  ignore (check_ok "next insert" (Relation.insert ctx desc (emp 9 "zoe" "ops" 70)));
  Alcotest.(check int) "subsequent insert ok" 5 (count_records ctx desc);
  Services.commit services ctx

let test_check_constraint () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  check_ok "check"
    (Ddl.create_attachment ctx ~relation:"employee" ~attachment_type:"check"
       ~name:"positive_salary"
       ~attrs:[ ("predicate", "salary > 0") ] ());
  ignore (insert_emps ctx desc base_rows);
  (match Relation.insert ctx desc (emp 5 "eve" "eng" (-1)) with
  | Error (Error.Veto _) -> ()
  | other ->
    Alcotest.failf "negative salary accepted: %s"
      (match other with Ok _ -> "ok" | Error e -> Error.to_string e));
  Alcotest.(check int) "undone" 4 (count_records ctx desc);
  (* NULL salary passes (UNKNOWN is not a violation) *)
  ignore
    (check_ok "null ok"
       (Relation.insert ctx desc [| vi 6; vs "may"; vs "eng"; Value.Null |]));
  (* update is checked too *)
  let keys = all_records ctx desc in
  ignore keys;
  Services.commit services ctx

let test_deferred_check_veto_at_commit () =
  let services = fresh_services () in
  let ctx, desc0 = setup_emp services in
  ignore desc0;
  check_ok "deferred check"
    (Ddl.create_attachment ctx ~relation:"employee" ~attachment_type:"check"
       ~name:"deferred_salary"
       ~attrs:[ ("predicate", "salary < 1000"); ("deferred", "true") ] ());
  Services.commit services ctx;
  (* violating insert is accepted now... *)
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
  ignore (check_ok "insert" (Relation.insert ctx desc (emp 1 "rich" "eng" 5000)));
  ignore desc;
  (* ... and vetoed when the transaction reaches the prepared state *)
  (match Services.commit services ctx with
  | exception Error.Error (Error.Veto _) -> ()
  | () -> Alcotest.fail "deferred violation committed");
  (* the transaction was aborted and rolled back *)
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
  Alcotest.(check int) "rolled back" 0 (count_records ctx desc);
  Services.commit services ctx

let test_deferred_check_fix_before_commit () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  check_ok "deferred check"
    (Ddl.create_attachment ctx ~relation:"employee" ~attachment_type:"check"
       ~name:"deferred_salary"
       ~attrs:[ ("predicate", "salary < 1000"); ("deferred", "true") ] ());
  (* insert a violating record, then fix it before commit: the deferred
     check sees the final state and passes *)
  let key =
    check_ok "insert" (Relation.insert ctx desc (emp 1 "rich" "eng" 5000))
  in
  let key' = check_ok "fix" (Relation.update ctx desc key (emp 1 "rich" "eng" 900)) in
  ignore key';
  Services.commit services ctx;
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
  Alcotest.(check int) "committed" 1 (count_records ctx desc);
  Services.commit services ctx

(* ---- referential integrity ---- *)

let dept_schema =
  Schema.make_exn
    [
      Schema.column ~nullable:false "name" Value.Tstring;
      Schema.column "building" Value.Tstring;
    ]

let setup_refint ?(on_delete = "restrict") services =
  let ctx = Services.begin_txn services in
  let dept =
    check_ok "create dept"
      (Ddl.create_relation ctx ~name:"dept" ~schema:dept_schema
         ~storage_method:"heap" ())
  in
  let empd =
    check_ok "create emp"
      (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  check_ok "refint"
    (Ddl.create_attachment ctx ~relation:"employee" ~attachment_type:"refint"
       ~name:"emp_dept_fk"
       ~attrs:
         [
           ("fields", "dept");
           ("parent", "dept");
           ("parent_fields", "name");
           ("on_delete", on_delete);
         ]
       ());
  ignore (check_ok "d1" (Relation.insert ctx dept [| vs "eng"; vs "b1" |]));
  ignore (check_ok "d2" (Relation.insert ctx dept [| vs "ops"; vs "b2" |]));
  (ctx, dept, empd)

let test_refint_orphan_veto () =
  let services = fresh_services () in
  let ctx, _dept, empd = setup_refint services in
  ignore (check_ok "ok child" (Relation.insert ctx empd (emp 1 "a" "eng" 10)));
  (match Relation.insert ctx empd (emp 2 "b" "nosuch" 10) with
  | Error (Error.Veto _) -> ()
  | _ -> Alcotest.fail "orphan accepted");
  Alcotest.(check int) "orphan undone" 1 (count_records ctx empd);
  (* NULL foreign key passes *)
  ignore
    (check_ok "null fk"
       (Relation.insert ctx empd [| vi 3; vs "c"; Value.Null; vi 10 |]));
  Services.commit services ctx

let test_refint_restrict () =
  let services = fresh_services () in
  let ctx, dept, empd = setup_refint services in
  ignore (check_ok "child" (Relation.insert ctx empd (emp 1 "a" "eng" 10)));
  (* find the parent record's key *)
  let scan = check_ok "scan" (Relation.scan ctx dept ()) in
  let parents = Scan_help.record_scan_to_list scan in
  let eng_key, _ =
    List.find (fun (_, r) -> r.(0) = vs "eng") parents
  in
  (match Relation.delete ctx dept eng_key with
  | Error (Error.Veto _) -> ()
  | _ -> Alcotest.fail "restrict did not veto");
  Alcotest.(check int) "parent still there" 2 (count_records ctx dept);
  Services.commit services ctx

let test_refint_cascade () =
  let services = fresh_services () in
  let ctx, dept, empd = setup_refint ~on_delete:"cascade" services in
  ignore (check_ok "e1" (Relation.insert ctx empd (emp 1 "a" "eng" 10)));
  ignore (check_ok "e2" (Relation.insert ctx empd (emp 2 "b" "eng" 20)));
  ignore (check_ok "e3" (Relation.insert ctx empd (emp 3 "c" "ops" 30)));
  let scan = check_ok "scan" (Relation.scan ctx dept ()) in
  let parents = Scan_help.record_scan_to_list scan in
  let eng_key, _ = List.find (fun (_, r) -> r.(0) = vs "eng") parents in
  ignore (check_ok "cascade delete" (Relation.delete ctx dept eng_key));
  Alcotest.(check int) "children cascaded" 1 (count_records ctx empd);
  Alcotest.(check int) "parent gone" 1 (count_records ctx dept);
  Services.commit services ctx

(* ---- triggers ---- *)

let test_trigger_audit_and_veto () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  check_ok "audit trigger"
    (Ddl.create_attachment ctx ~relation:"employee" ~attachment_type:"trigger"
       ~name:"audit_all"
       ~attrs:[ ("function", "audit"); ("events", "insert,update,delete") ] ());
  check_ok "veto trigger"
    (Ddl.create_attachment ctx ~relation:"employee" ~attachment_type:"trigger"
       ~name:"no_friday"
       ~attrs:[ ("function", "no_friday"); ("events", "insert") ] ());
  audit_log := [];
  let key = check_ok "ins" (Relation.insert ctx desc (emp 1 "a" "eng" 1)) in
  ignore (check_ok "upd" (Relation.update ctx desc key (emp 1 "a" "eng" 2)));
  Alcotest.(check (list string))
    "audit entries"
    [ "update employee"; "insert employee" ]
    !audit_log;
  (* vetoing trigger: record named "friday" is rejected *)
  (match Relation.insert ctx desc (emp 2 "friday" "eng" 1) with
  | Error (Error.Veto _) -> ()
  | _ -> Alcotest.fail "trigger veto missing");
  Alcotest.(check int) "undone" 1 (count_records ctx desc);
  Services.commit services ctx

(* ---- savepoints and abort ---- *)

let test_savepoint_partial_rollback () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  check_ok "index"
    (Ddl.create_attachment ctx ~relation:"employee"
       ~attachment_type:"btree_index" ~name:"emp_id"
       ~attrs:[ ("fields", "id") ] ());
  ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
  ignore (check_ok "b" (Relation.insert ctx desc (emp 2 "b" "eng" 2)));
  Services.savepoint ctx "sp1";
  ignore (check_ok "c" (Relation.insert ctx desc (emp 3 "c" "eng" 3)));
  ignore (check_ok "d" (Relation.insert ctx desc (emp 4 "d" "eng" 4)));
  Alcotest.(check int) "before rollback" 4 (count_records ctx desc);
  Services.rollback_to ctx "sp1";
  Alcotest.(check int) "after rollback" 2 (count_records ctx desc);
  (* the index followed the rollback *)
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  let instance =
    Option.get (Dmx_attach.Btree_index.instance_number desc ~name:"emp_id")
  in
  Alcotest.(check int) "index entry gone" 0
    (List.length
       (check_ok "lookup"
          (Relation.lookup ctx desc ~attachment_id:at_id ~instance
             ~key:[| vi 3 |])));
  Alcotest.(check int) "index entry kept" 1
    (List.length
       (check_ok "lookup"
          (Relation.lookup ctx desc ~attachment_id:at_id ~instance
             ~key:[| vi 2 |])));
  (* savepoint remains established: work after it can be rolled back again *)
  ignore (check_ok "e" (Relation.insert ctx desc (emp 5 "e" "eng" 5)));
  Services.rollback_to ctx "sp1";
  Alcotest.(check int) "rollback again" 2 (count_records ctx desc);
  Services.commit services ctx

(* A keyed update logs its change and its Commit and nothing else: the
   transaction enters the log with the change, and the statement's rollback
   point is a mark in memory, not a log record. *)
let test_update_logs_only_its_change () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  let key = check_ok "ins" (Relation.insert ctx desc (emp 1 "a" "eng" 1)) in
  Services.commit services ctx;
  let wal = services.Services.wal in
  let from = Int64.succ (Dmx_wal.Wal.last_lsn wal) in
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
  ignore (check_ok "upd" (Relation.update ctx desc key (emp 1 "a" "eng" 2)));
  Services.commit services ctx;
  let kinds = ref [] in
  Array.iter
    (fun (r : Dmx_wal.Log_record.t) ->
      if r.lsn >= from then begin
        let name =
          match r.kind with
          | Ext _ -> "Ext"
          | Commit -> "Commit"
          | k -> Fmt.str "%a" Dmx_wal.Log_record.pp_kind k
        in
        kinds := name :: !kinds
      end)
    (Dmx_wal.Wal.read_all wal);
  Alcotest.(check (list string)) "the transaction's records"
    [ "Ext"; "Commit" ] (List.rev !kinds)

let test_abort_rolls_back_everything () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  Services.commit services ctx;
  ignore desc;
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
  ignore (insert_emps ctx desc base_rows);
  Alcotest.(check int) "inserted" 4 (count_records ctx desc);
  Services.abort services ctx;
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
  Alcotest.(check int) "all gone" 0 (count_records ctx desc);
  Services.commit services ctx

let test_ddl_rollback () =
  let services = fresh_services () in
  let ctx, _desc = setup_emp services in
  Services.abort services ctx;
  (* the relation creation was undone *)
  let ctx = Services.begin_txn services in
  (match Ddl.find_relation ctx "employee" with
  | Error (Error.No_such_relation _) -> ()
  | _ -> Alcotest.fail "uncommitted relation survived abort");
  Services.commit services ctx

let test_drop_relation_rollback () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  ignore (insert_emps ctx desc base_rows);
  Services.commit services ctx;
  let ctx = Services.begin_txn services in
  check_ok "drop" (Ddl.drop_relation ctx ~name:"employee");
  (match Ddl.find_relation ctx "employee" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dropped relation still visible");
  Services.abort services ctx;
  (* drop undone: relation and its contents are back (deferred destroy never
     ran because the transaction aborted) *)
  let ctx = Services.begin_txn services in
  let desc = check_ok "find after abort" (Ddl.find_relation ctx "employee") in
  Alcotest.(check int) "contents intact" 4 (count_records ctx desc);
  Services.commit services ctx

(* ---- update with key change ---- *)

let test_update_changes_key_btree_org () =
  let services = fresh_services () in
  let ctx, desc =
    setup_emp ~storage_method:"btree" ~attrs:[ ("key", "id") ] services
  in
  check_ok "dept index"
    (Ddl.create_attachment ctx ~relation:"employee"
       ~attachment_type:"btree_index" ~name:"emp_dept"
       ~attrs:[ ("fields", "dept") ] ());
  let keys = insert_emps ctx desc base_rows in
  (* change the record's key field: record key changes, index follows *)
  let key1 = List.nth keys 0 in
  let new_key =
    check_ok "update key field"
      (Relation.update ctx desc key1 (emp 10 "alice" "sales" 120))
  in
  Alcotest.(check bool) "key changed" false (Record_key.equal key1 new_key);
  (match check_ok "fetch new" (Relation.fetch ctx desc new_key ()) with
  | Some r -> Alcotest.check value_testable "name" (vs "alice") r.(1)
  | None -> Alcotest.fail "record not under new key");
  (match check_ok "fetch old" (Relation.fetch ctx desc key1 ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "record still under old key");
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  let instance =
    Option.get (Dmx_attach.Btree_index.instance_number desc ~name:"emp_dept")
  in
  let sales =
    check_ok "lookup sales"
      (Relation.lookup ctx desc ~attachment_id:at_id ~instance
         ~key:[| vs "sales" |])
  in
  Alcotest.(check int) "index maintained" 1 (List.length sales);
  Services.commit services ctx

let test_btree_org_ordered_scan () =
  let services = fresh_services () in
  let ctx, desc =
    setup_emp ~storage_method:"btree" ~attrs:[ ("key", "id") ] services
  in
  ignore (insert_emps ctx desc (List.rev base_rows));
  let records =
    let scan = check_ok "scan" (Relation.scan ctx desc ()) in
    Scan_help.record_scan_to_list scan |> List.map snd
  in
  Alcotest.(check (list int)) "key order"
    [ 1; 2; 3; 4 ]
    (List.map (fun r -> Int64.to_int (Option.get (Value.to_int r.(0)))) records);
  (* duplicate key refused by the storage method itself *)
  (match Relation.insert ctx desc (emp 1 "dup" "x" 0) with
  | Error (Error.Duplicate_key _) -> ()
  | _ -> Alcotest.fail "duplicate key accepted");
  (* bounded key-sequential access *)
  let scan =
    check_ok "range scan"
      (Relation.scan ctx desc ~lo:(Intf.Incl [| vi 2 |])
         ~hi:(Intf.Incl [| vi 3 |]) ())
  in
  Alcotest.(check int) "bounded" 2
    (List.length (Scan_help.record_scan_to_list scan));
  Services.commit services ctx

(* ---- stats attachment ---- *)

let test_stats_attachment () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  check_ok "stats"
    (Ddl.create_attachment ctx ~relation:"employee" ~attachment_type:"stats"
       ~name:"emp_stats" ~attrs:[ ("fields", "salary") ] ());
  ignore (insert_emps ctx desc base_rows);
  let stats () =
    Option.get (Dmx_attach.Stats.get ctx desc ~name:"emp_stats")
  in
  let s = stats () in
  Alcotest.(check int) "count" 4 s.Dmx_attach.Stats.live_count;
  let f = List.hd s.per_field in
  Alcotest.(check int64) "sum" 390L f.Dmx_attach.Stats.sum;
  Alcotest.check value_testable "min" (vi 80) f.min_seen;
  Alcotest.check value_testable "max" (vi 120) f.max_seen;
  (* savepoint + rollback restores counts and sums *)
  Services.savepoint ctx "sp";
  ignore (check_ok "ins" (Relation.insert ctx desc (emp 9 "x" "eng" 1000)));
  Alcotest.(check int64) "sum grew" 1390L (List.hd (stats ()).per_field).sum;
  Services.rollback_to ctx "sp";
  Alcotest.(check int64) "sum restored" 390L (List.hd (stats ()).per_field).sum;
  Alcotest.(check int) "count restored" 4 (stats ()).live_count;
  Services.commit services ctx

(* ---- hash index ---- *)

let test_hash_index () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  check_ok "hash"
    (Ddl.create_attachment ctx ~relation:"employee"
       ~attachment_type:"hash_index" ~name:"emp_hash"
       ~attrs:[ ("fields", "id"); ("buckets", "8"); ("unique", "true") ] ());
  ignore (insert_emps ctx desc base_rows);
  let at_id = Option.get (Registry.attachment_id "hash_index") in
  let hits =
    check_ok "lookup"
      (Relation.lookup ctx desc ~attachment_id:at_id ~instance:1
         ~key:[| vi 3 |])
  in
  Alcotest.(check int) "hash hit" 1 (List.length hits);
  (match check_ok "fetch" (Relation.fetch ctx desc (List.hd hits) ()) with
  | Some r -> Alcotest.check value_testable "carol" (vs "carol") r.(1)
  | None -> Alcotest.fail "dangling");
  (* unique veto *)
  (match Relation.insert ctx desc (emp 3 "dup" "x" 0) with
  | Error (Error.Veto _) -> ()
  | _ -> Alcotest.fail "hash unique violated");
  Services.commit services ctx

(* ---- join index ---- *)

let test_join_index () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let dept =
    check_ok "dept"
      (Ddl.create_relation ctx ~name:"dept" ~schema:dept_schema
         ~storage_method:"heap" ())
  in
  let empd =
    check_ok "emp"
      (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  ignore (check_ok "d1" (Relation.insert ctx dept [| vs "eng"; vs "b1" |]));
  ignore (check_ok "d2" (Relation.insert ctx dept [| vs "ops"; vs "b2" |]));
  ignore (check_ok "e1" (Relation.insert ctx empd (emp 1 "a" "eng" 10)));
  (* created after some records exist: precomputes the join *)
  check_ok "join index"
    (Ddl.create_attachment ctx ~relation:"employee"
       ~attachment_type:"join_index" ~name:"emp_dept_ji"
       ~attrs:[ ("field", "dept"); ("other", "dept"); ("other_field", "name") ]
       ());
  Alcotest.(check int) "initial pairs" 1
    (List.length (Dmx_attach.Join_index.pairs ctx empd ~name:"emp_dept_ji"));
  (* maintenance from the employee side *)
  let k2 = check_ok "e2" (Relation.insert ctx empd (emp 2 "b" "eng" 20)) in
  ignore (check_ok "e3" (Relation.insert ctx empd (emp 3 "c" "ops" 30)));
  Alcotest.(check int) "pairs grow" 3
    (List.length (Dmx_attach.Join_index.pairs ctx empd ~name:"emp_dept_ji"));
  (* maintenance from the dept (mirror) side *)
  ignore (check_ok "d3" (Relation.insert ctx dept [| vs "hr"; vs "b3" |]));
  Alcotest.(check int) "no hr employees yet" 3
    (List.length (Dmx_attach.Join_index.pairs ctx empd ~name:"emp_dept_ji"));
  ignore (check_ok "e4" (Relation.insert ctx empd (emp 4 "d" "hr" 40)));
  Alcotest.(check int) "hr pair added" 4
    (List.length (Dmx_attach.Join_index.pairs ctx empd ~name:"emp_dept_ji"));
  (* delete a record: its pairs disappear *)
  ignore (check_ok "del" (Relation.delete ctx empd k2));
  Alcotest.(check int) "pair removed" 3
    (List.length (Dmx_attach.Join_index.pairs ctx empd ~name:"emp_dept_ji"));
  (* the dept side sees the same pairs, reversed *)
  let dept_pairs = Dmx_attach.Join_index.pairs ctx dept ~name:"emp_dept_ji" in
  Alcotest.(check int) "mirror view" 3 (List.length dept_pairs);
  Services.commit services ctx

(* ---- read-only ("optical") storage ---- *)

let test_readonly_seal () =
  let services = fresh_services () in
  let ctx, desc = setup_emp ~storage_method:"readonly" services in
  ignore (insert_emps ctx desc base_rows);
  (* updates and deletes refused even before sealing *)
  let scan = check_ok "scan" (Relation.scan ctx desc ()) in
  let (k, r) = List.hd (Scan_help.record_scan_to_list scan) in
  (match Relation.update ctx desc k r with
  | Error (Error.Read_only _) -> ()
  | _ -> Alcotest.fail "update on write-once accepted");
  (match Relation.delete ctx desc k with
  | Error (Error.Read_only _) -> ()
  | _ -> Alcotest.fail "delete on write-once accepted");
  Dmx_smethod.Readonly.seal ctx desc;
  (match Relation.insert ctx desc (emp 99 "late" "x" 0) with
  | Error (Error.Read_only _) -> ()
  | _ -> Alcotest.fail "insert after seal accepted");
  Alcotest.(check int) "published contents" 4 (count_records ctx desc);
  Services.commit services ctx

(* ---- foreign storage method ---- *)

let test_foreign_gateway () =
  let servers = Dmx_smethod.Remote_server.directory () in
  let srv = Dmx_smethod.Remote_server.create servers ~name:"mainframe" in
  let services = fresh_services ~servers () in
  Dmx_smethod.Remote_server.reset_stats srv;
  let ctx, desc =
    setup_emp ~storage_method:"foreign"
      ~attrs:[ ("server", "mainframe"); ("relation", "emp_remote") ]
      services
  in
  let keys = insert_emps ctx desc base_rows in
  Alcotest.(check int) "remote count" 4 (count_records ctx desc);
  Alcotest.(check bool) "messages exchanged" true
    (Dmx_smethod.Remote_server.message_count srv > 4);
  ignore (check_ok "delete" (Relation.delete ctx desc (List.hd keys)));
  Alcotest.(check int) "after delete" 3 (count_records ctx desc);
  Services.commit services ctx;
  (* abort sends compensating messages *)
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
  ignore (check_ok "ins" (Relation.insert ctx desc (emp 50 "x" "y" 1)));
  Alcotest.(check int) "visible remotely" 4 (count_records ctx desc);
  Services.abort services ctx;
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
  Alcotest.(check int) "compensated" 3 (count_records ctx desc);
  Services.commit services ctx

(* The servers outlive the local database: after a crash, restart undoes a
   loser's remote insert with a compensating message, and after a clean
   reopen the foreign relation still reaches its remote rows. A database
   given no directory reaches no server. *)
let test_foreign_across_reopen () =
  with_temp_dir ~prefix:"dmx_foreign_reopen" (fun dir ->
      let servers = Dmx_smethod.Remote_server.directory () in
      ignore (Dmx_smethod.Remote_server.create servers ~name:"mainframe");
      let services = fresh_services ~dir ~servers () in
      let ctx, desc =
        setup_emp ~storage_method:"foreign"
          ~attrs:[ ("server", "mainframe"); ("relation", "emp_remote") ]
          services
      in
      ignore (insert_emps ctx desc base_rows);
      Services.commit services ctx;
      let loser = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation loser "employee") in
      ignore (check_ok "ins" (Relation.insert loser desc (emp 50 "x" "y" 1)));
      Alcotest.(check int) "loser's row reached the server" 5
        (count_records loser desc);
      (* the loser's records reach the log, then the machine dies *)
      Dmx_wal.Wal.flush services.Services.wal;
      Services.simulate_crash services;
      let services = fresh_services ~dir ~servers () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "restart compensated the loser" 4
        (count_records ctx desc);
      ignore (check_ok "ins" (Relation.insert ctx desc (emp 60 "z" "w" 2)));
      Services.commit services ctx;
      Services.close services;
      let services = fresh_services ~dir ~servers () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "clean reopen reaches the remote rows" 5
        (count_records ctx desc);
      Services.commit services ctx;
      Services.close services;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      (match Relation.insert ctx desc (emp 70 "u" "v" 3) with
      | Error (Error.Internal _) -> ()
      | _ -> Alcotest.fail "a database with no directory reached the server");
      Services.abort services ctx;
      Services.close services)

(* ---- memory storage method ---- *)

let test_memory_storage () =
  let services = fresh_services () in
  let ctx, desc = setup_emp ~storage_method:"memory" services in
  let keys = insert_emps ctx desc base_rows in
  Alcotest.(check int) "count" 4 (count_records ctx desc);
  ignore (check_ok "upd" (Relation.update ctx desc (List.hd keys) (emp 1 "a2" "x" 0)));
  Services.savepoint ctx "sp";
  ignore (check_ok "del" (Relation.delete ctx desc (List.nth keys 1)));
  Alcotest.(check int) "deleted" 3 (count_records ctx desc);
  Services.rollback_to ctx "sp";
  Alcotest.(check int) "restored" 4 (count_records ctx desc);
  Services.commit services ctx

(* ---- scan position semantics through the architecture ---- *)

(* The record cursor buffers a run; at run length 4 all four records sit in
   one run, so the savepoint falls mid-run for every method. *)
let test_scan_positions_after_partial_rollback () =
  Scan_help.set_run_length_for_testing (Some 4);
  Fun.protect ~finally:(fun () -> Scan_help.set_run_length_for_testing None)
  @@ fun () ->
  List.iter
    (fun (storage_method, attrs) ->
      let services = fresh_services () in
      let ctx, desc = setup_emp ~storage_method ~attrs services in
      ignore (insert_emps ctx desc base_rows);
      let scan = check_ok "scan" (Relation.scan ctx desc ()) in
      let step what expected =
        let _, r = Option.get (scan.Intf.rs_next ()) in
        Alcotest.check value_testable (storage_method ^ ": " ^ what)
          (vi expected) r.(0)
      in
      step "first" 1;
      (* establish a savepoint: open scan positions are captured *)
      Services.savepoint ctx "sp";
      step "second" 2;
      step "third" 3;
      (* partial rollback restores the scan position to "on record 1" *)
      Services.rollback_to ctx "sp";
      step "replay second" 2;
      Services.commit services ctx)
    [ ("heap", []); ("btree", [ ("key", "id") ]); ("memory", []) ]

let test_veto_does_not_disturb_scan () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  check_ok "check"
    (Ddl.create_attachment ctx ~relation:"employee" ~attachment_type:"check"
       ~name:"pos" ~attrs:[ ("predicate", "salary > 0") ] ());
  ignore (insert_emps ctx desc base_rows);
  let scan = check_ok "scan" (Relation.scan ctx desc ()) in
  let step () = Option.get (scan.Intf.rs_next ()) in
  let _, r1 = step () in
  Alcotest.check value_testable "first" (vi 1) r1.(0);
  (* a vetoed modification mid-scan performs a partial rollback; the open
     scan must keep its position *)
  (match Relation.insert ctx desc (emp 9 "bad" "x" (-5)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "veto expected");
  let _, r2 = step () in
  Alcotest.check value_testable "continues" (vi 2) r2.(0);
  Services.commit services ctx

(* "Partial transaction rollback is used, not only to recover from vetoed
   relation modifications, but also to undo the partial effects of (complex)
   data definition operations" (paper p. 224). *)
let test_ddl_partial_rollback () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  ignore (insert_emps ctx desc base_rows);
  Services.savepoint ctx "before_ddl";
  check_ok "index"
    (Ddl.create_attachment ctx ~relation:"employee"
       ~attachment_type:"btree_index" ~name:"mid_txn"
       ~attrs:[ ("fields", "id") ] ());
  ignore (check_ok "ins" (Relation.insert ctx desc (emp 9 "z" "eng" 9)));
  Alcotest.(check bool) "index exists" true
    (Dmx_attach.Btree_index.instance_number desc ~name:"mid_txn" <> None);
  Services.rollback_to ctx "before_ddl";
  (* the attachment creation was undone along with the insert *)
  Alcotest.(check bool) "index gone" true
    (Dmx_attach.Btree_index.instance_number desc ~name:"mid_txn" = None);
  Alcotest.(check int) "insert undone" 4 (count_records ctx desc);
  (* the relation remains fully usable *)
  ignore (check_ok "post" (Relation.insert ctx desc (emp 10 "p" "eng" 10)));
  Services.commit services ctx;
  (* and a relation created after a savepoint disappears on rollback *)
  let ctx = Services.begin_txn services in
  Services.savepoint ctx "sp";
  ignore
    (check_ok "create2"
       (Ddl.create_relation ctx ~name:"ephemeral" ~schema:emp_schema
          ~storage_method:"heap" ()));
  Services.rollback_to ctx "sp";
  (match Ddl.find_relation ctx "ephemeral" with
  | Error (Error.No_such_relation _) -> ()
  | _ -> Alcotest.fail "relation survived partial rollback");
  Services.commit services ctx

(* "data management extensions must be made 'at the factory'": registration
   after the database has opened is refused. *)
let test_registry_frozen_after_open () =
  let services = fresh_services () in
  ignore services;
  Alcotest.(check bool) "frozen" true (Registry.is_frozen ());
  (* re-registering an existing module is fine (memoised id)... *)
  Alcotest.(check int) "idempotent" (Dmx_smethod.Heap.id ())
    (Dmx_smethod.Heap.register ());
  (* ...but binding a brand-new extension now is refused *)
  let module Rogue = struct
    let name = "rogue"
    let attr_specs = []
    let create _ ~rel_id:_ _ _ = Error (Error.Internal "unused")
    let destroy _ ~rel_id:_ ~smethod_desc:_ = ()
    let insert _ _ _ = Error (Error.Internal "unused")
    let update _ _ _ _ = Error (Error.Internal "unused")
    let delete _ _ _ = Error (Error.Internal "unused")
    let fetch _ _ _ ?fields:_ () = None
    let scan _ _ ?lo:_ ?hi:_ ?filter:_ () =
      { Intf.rs_next = (fun () -> None);
        rs_close = ignore;
        rs_capture = (fun () -> ignore) }
    let key_fields _ = None
    let record_count _ _ = 0
    let estimate_scan _ _ ~eligible:_ =
      { Dmx_core.Cost.cost = Dmx_core.Cost.zero; est_rows = 0.;
        matched = []; residual = []; ordered_by = None }
    let undo _ ~rel_id:_ ~data:_ = ()
  end in
  match Registry.register_storage_method (module Rogue) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "registration after open accepted"

(* every code path must unpin what it pins: after a workload with scans,
   index maintenance, veto rollbacks and lookups, no frame stays pinned
   (drop_cache refuses if one does) *)
let test_no_pin_leaks () =
  let services = fresh_services () in
  let ctx, desc = setup_emp services in
  check_ok "pk"
    (Ddl.create_attachment ctx ~relation:"employee"
       ~attachment_type:"btree_index" ~name:"pk"
       ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
  check_ok "check"
    (Ddl.create_attachment ctx ~relation:"employee" ~attachment_type:"check"
       ~name:"pos" ~attrs:[ ("predicate", "salary > 0") ] ());
  ignore (insert_emps ctx desc base_rows);
  ignore (Relation.insert ctx desc (emp 1 "dup" "x" 1));  (* veto path *)
  ignore (Relation.insert ctx desc (emp 9 "neg" "x" (-1)));  (* veto path *)
  let scan = check_ok "scan" (Relation.scan ctx desc ()) in
  ignore (scan.Intf.rs_next ());
  scan.rs_close ();
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  ignore
    (check_ok "lookup"
       (Relation.lookup ctx desc ~attachment_id:at_id ~instance:1
          ~key:[| vi 2 |]));
  Services.savepoint ctx "sp";
  ignore (Relation.delete ctx desc (List.hd (List.map fst (
      Dmx_core.Scan_help.record_scan_to_list
        (check_ok "s2" (Relation.scan ctx desc ()))))));
  Services.rollback_to ctx "sp";
  Services.commit services ctx;
  ignore (Dmx_page.Buffer_pool.flush_all services.Services.bp);
  match Dmx_page.Buffer_pool.drop_cache services.Services.bp with
  | () -> ()
  | exception Failure msg -> Alcotest.failf "pin leak: %s" msg

let suite =
  [
    Alcotest.test_case "heap + btree index" `Quick test_heap_btree_index;
    Alcotest.test_case "no buffer-pool pin leaks" `Quick test_no_pin_leaks;
    Alcotest.test_case "registry frozen after open" `Quick
      test_registry_frozen_after_open;
    Alcotest.test_case "DDL undone by partial rollback" `Quick
      test_ddl_partial_rollback;
    Alcotest.test_case "unique index veto + partial rollback" `Quick
      test_unique_index_veto;
    Alcotest.test_case "check constraint" `Quick test_check_constraint;
    Alcotest.test_case "deferred check vetoes at commit" `Quick
      test_deferred_check_veto_at_commit;
    Alcotest.test_case "deferred check passes after fix" `Quick
      test_deferred_check_fix_before_commit;
    Alcotest.test_case "refint orphan veto" `Quick test_refint_orphan_veto;
    Alcotest.test_case "refint restrict" `Quick test_refint_restrict;
    Alcotest.test_case "refint cascade delete" `Quick test_refint_cascade;
    Alcotest.test_case "triggers: audit + veto" `Quick
      test_trigger_audit_and_veto;
    Alcotest.test_case "savepoint partial rollback" `Quick
      test_savepoint_partial_rollback;
    Alcotest.test_case "keyed update logs Ext, Commit" `Quick
      test_update_logs_only_its_change;
    Alcotest.test_case "abort rolls back" `Quick
      test_abort_rolls_back_everything;
    Alcotest.test_case "DDL rollback" `Quick test_ddl_rollback;
    Alcotest.test_case "drop relation rollback" `Quick
      test_drop_relation_rollback;
    Alcotest.test_case "update changing record key" `Quick
      test_update_changes_key_btree_org;
    Alcotest.test_case "btree-organised storage" `Quick
      test_btree_org_ordered_scan;
    Alcotest.test_case "stats attachment" `Quick test_stats_attachment;
    Alcotest.test_case "hash index" `Quick test_hash_index;
    Alcotest.test_case "join index" `Quick test_join_index;
    Alcotest.test_case "read-only storage" `Quick test_readonly_seal;
    Alcotest.test_case "foreign gateway" `Quick test_foreign_gateway;
    Alcotest.test_case "foreign servers outlive a reopen" `Quick
      test_foreign_across_reopen;
    Alcotest.test_case "memory storage" `Quick test_memory_storage;
    Alcotest.test_case "scan position after partial rollback" `Quick
      test_scan_positions_after_partial_rollback;
    Alcotest.test_case "veto preserves open scans" `Quick
      test_veto_does_not_disturb_scan;
  ]
