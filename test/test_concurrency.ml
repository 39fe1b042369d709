(* Logically interleaved transactions: lock conflicts surface under the
   no-wait policy, DDL excludes concurrent access, commits release locks. *)
open Dmx_core
open Test_util
module Ddl = Dmx_ddl.Ddl
module Relation = Dmx_core.Relation

let setup services =
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  let keys =
    List.map
      (fun i -> check_ok "seed" (Relation.insert ctx desc (emp i "x" "d" i)))
      [ 1; 2; 3 ]
  in
  Services.commit services ctx;
  keys

let test_write_write_conflict () =
  let services = fresh_services () in
  let keys = setup services in
  let k = List.hd keys in
  let t1 = Services.begin_txn services in
  let t2 = Services.begin_txn services in
  let desc1 = check_ok "find" (Ddl.find_relation t1 "t") in
  let desc2 = check_ok "find" (Ddl.find_relation t2 "t") in
  (* t1 X-locks the record by updating it *)
  ignore (check_ok "t1 update" (Relation.update t1 desc1 k (emp 1 "t1" "d" 10)));
  (* t2's update of the same record conflicts (no-wait policy) *)
  (match Relation.update t2 desc2 k (emp 1 "t2" "d" 20) with
  | Error (Error.Lock_conflict { holders; _ }) ->
    Alcotest.(check (list int)) "holder is t1" [ t1.Ctx.txn.Dmx_txn.Txn.id ]
      holders
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "write-write conflict missed");
  (* a different record is free *)
  ignore
    (check_ok "t2 other record"
       (Relation.update t2 desc2 (List.nth keys 1) (emp 2 "t2" "d" 20)));
  (* after t1 commits, t2 can touch the record *)
  Services.commit services t1;
  ignore (check_ok "t2 after commit" (Relation.update t2 desc2 k (emp 1 "t2" "d" 30)));
  Services.commit services t2

let test_ddl_excludes_writers () =
  let services = fresh_services () in
  ignore (setup services);
  let t1 = Services.begin_txn services in
  let desc1 = check_ok "find" (Ddl.find_relation t1 "t") in
  ignore (check_ok "t1 insert" (Relation.insert t1 desc1 (emp 9 "x" "d" 9)));
  (* t2's index creation needs an X relation lock: blocked by t1's IX *)
  let t2 = Services.begin_txn services in
  (match
     Ddl.create_attachment t2 ~relation:"t" ~attachment_type:"btree_index"
       ~name:"pk" ~attrs:[ ("fields", "id") ] ()
   with
  | Error (Error.Lock_conflict _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok () -> Alcotest.fail "DDL proceeded under a writer");
  Services.abort services t2;
  Services.commit services t1;
  (* now it goes through *)
  let t3 = Services.begin_txn services in
  check_ok "after release"
    (Ddl.create_attachment t3 ~relation:"t" ~attachment_type:"btree_index"
       ~name:"pk" ~attrs:[ ("fields", "id") ] ());
  Services.commit services t3

let test_writer_blocks_ddl_and_vice_versa () =
  let services = fresh_services () in
  ignore (setup services);
  (* DDL holds X to commit: writers conflict meanwhile *)
  let t1 = Services.begin_txn services in
  check_ok "t1 index"
    (Ddl.create_attachment t1 ~relation:"t" ~attachment_type:"btree_index"
       ~name:"pk" ~attrs:[ ("fields", "id") ] ());
  let t2 = Services.begin_txn services in
  let desc2 = check_ok "find" (Ddl.find_relation t2 "t") in
  (match Relation.insert t2 desc2 (emp 8 "x" "d" 8) with
  | Error (Error.Lock_conflict _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "insert proceeded under DDL");
  Services.commit services t1;
  ignore (check_ok "after ddl" (Relation.insert t2 desc2 (emp 8 "x" "d" 8)));
  Services.commit services t2

let test_abort_releases_locks () =
  let services = fresh_services () in
  let keys = setup services in
  let k = List.hd keys in
  let t1 = Services.begin_txn services in
  let desc1 = check_ok "find" (Ddl.find_relation t1 "t") in
  ignore (check_ok "t1 update" (Relation.update t1 desc1 k (emp 1 "t1" "d" 10)));
  Services.abort services t1;
  let t2 = Services.begin_txn services in
  let desc2 = check_ok "find" (Ddl.find_relation t2 "t") in
  ignore (check_ok "t2 free" (Relation.update t2 desc2 k (emp 1 "t2" "d" 20)));
  (* and t1's change was undone first *)
  (match check_ok "fetch" (Relation.fetch t2 desc2 k ()) with
  | Some r -> Alcotest.check value_testable "t2's value" (vs "t2") r.(1)
  | None -> Alcotest.fail "record vanished");
  Services.commit services t2

let test_deadlock_detect_across_txns () =
  let services = fresh_services () in
  let keys = setup services in
  let ka = List.nth keys 0 and kb = List.nth keys 1 in
  let t1 = Services.begin_txn services in
  let t2 = Services.begin_txn services in
  let d1 = check_ok "find" (Ddl.find_relation t1 "t") in
  let d2 = check_ok "find" (Ddl.find_relation t2 "t") in
  ignore (check_ok "t1 a" (Relation.update t1 d1 ka (emp 1 "t1" "d" 1)));
  ignore (check_ok "t2 b" (Relation.update t2 d2 kb (emp 2 "t2" "d" 2)));
  (* both now *enqueue* for each other's record: a cycle the detector finds *)
  let locks = services.Services.locks in
  let res key =
    Dmx_lock.Lock_table.Record
      (d1.Dmx_catalog.Descriptor.rel_id,
       Bytes.to_string (Dmx_value.Record_key.encode key))
  in
  ignore
    (Dmx_lock.Lock_table.enqueue locks ~txid:t1.Ctx.txn.Dmx_txn.Txn.id
       ~mode:Dmx_lock.Lock_mode.X (res kb));
  ignore
    (Dmx_lock.Lock_table.enqueue locks ~txid:t2.Ctx.txn.Dmx_txn.Txn.id
       ~mode:Dmx_lock.Lock_mode.X (res ka));
  (match Dmx_lock.Deadlock.detect locks with
  | Some victim ->
    Alcotest.(check int) "youngest txn is the victim"
      t2.Ctx.txn.Dmx_txn.Txn.id victim
  | None -> Alcotest.fail "deadlock missed");
  (* resolution aborts the victim and breaks the cycle: t1 is granted *)
  (match Services.resolve_deadlock services with
  | Some victim ->
    Alcotest.(check int) "resolved victim" t2.Ctx.txn.Dmx_txn.Txn.id victim
  | None -> Alcotest.fail "resolution found no cycle");
  Alcotest.(check bool) "victim aborted" false
    (Dmx_txn.Txn.is_active t2.Ctx.txn);
  Alcotest.(check bool) "t1 unblocked" true
    (Dmx_lock.Lock_table.is_granted locks ~txid:t1.Ctx.txn.Dmx_txn.Txn.id
       (res kb));
  Alcotest.(check (option int)) "no cycle remains" None
    (Dmx_lock.Deadlock.detect locks);
  Services.abort services t1

(* An aggregate's group cell is undone by its change image, which is sound
   only while the logging transaction owns the cell: T1 +(d, 10), T2
   +(d, 5), T1 aborts. T2's bump of the cell T1 holds must be refused (or,
   if it went through, T1's undo must not lose it): the group never reads
   count 2 / sum 15. *)
let test_agg_cell_owned () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  ignore
    (check_ok "create"
       (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
          ~storage_method:"heap" ()));
  ignore
    (check_ok "agg"
       (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"agg"
          ~name:"by_dept" ~attrs:[ ("group", "dept"); ("sum", "salary") ] ()));
  Services.commit services ctx;
  let t1 = Services.begin_txn services in
  let t2 = Services.begin_txn services in
  let desc1 = check_ok "find" (Ddl.find_relation t1 "t") in
  let desc2 = check_ok "find" (Ddl.find_relation t2 "t") in
  ignore (check_ok "t1 insert" (Relation.insert t1 desc1 (emp 1 "a" "d" 10)));
  let t2_in =
    match Relation.insert t2 desc2 (emp 2 "b" "d" 5) with
    | Ok _ -> true
    | Error (Error.Lock_conflict _) -> false
    | Error e -> Alcotest.failf "t2 insert: %s" (Error.to_string e)
  in
  Services.abort services t1;
  if t2_in then Services.commit services t2 else Services.abort services t2;
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "t") in
  let groups =
    List.map
      (fun (g : Dmx_attach.Agg.group) -> (g.count, g.sum))
      (Dmx_attach.Agg.groups ctx desc ~name:"by_dept")
  in
  Alcotest.(check (list (pair int int64)))
    "group d follows the committed rows"
    (if t2_in then [ (1, 5L) ] else [])
    groups;
  Services.commit services ctx

let suite =
  [
    Alcotest.test_case "write-write conflict (no-wait)" `Quick
      test_write_write_conflict;
    Alcotest.test_case "DDL excluded by writers" `Quick
      test_ddl_excludes_writers;
    Alcotest.test_case "writers excluded by DDL" `Quick
      test_writer_blocks_ddl_and_vice_versa;
    Alcotest.test_case "abort releases locks + undoes" `Quick
      test_abort_releases_locks;
    Alcotest.test_case "deadlock detection across transactions" `Quick
      test_deadlock_detect_across_txns;
    Alcotest.test_case "aggregate cell owned until the writer ends" `Quick
      test_agg_cell_owned;
  ]
