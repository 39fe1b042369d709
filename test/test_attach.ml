(* Attachment edge cases: multiple instances per type, hash overflow chains,
   referential updates, deferred refint, attachment DDL validation. *)
open Dmx_value
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
  (ctx, desc)

let test_multiple_instances_one_slot () =
  let services = fresh_services () in
  let ctx, desc = setup services in
  (* three B-tree indexes: all live in the one btree_index descriptor slot *)
  List.iter
    (fun (name, fields) ->
      check_ok name
        (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
           ~name ~attrs:[ ("fields", fields) ] ()))
    [ ("by_id", "id"); ("by_dept", "dept"); ("by_dept_sal", "dept,salary") ];
  Alcotest.(check (list int)) "one slot used" [ 0 ]
    (Dmx_catalog.Descriptor.attachment_types_present desc);
  Alcotest.(check (list string)) "instances"
    [ "by_id"; "by_dept"; "by_dept_sal" ]
    (Dmx_attach.Btree_index.instance_names desc);
  (* all three are maintained by one attached-procedure call per insert *)
  ignore (check_ok "ins" (Relation.insert ctx desc (emp 1 "a" "eng" 10)));
  ignore (check_ok "ins" (Relation.insert ctx desc (emp 2 "b" "eng" 20)));
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  let lookup instance key =
    List.length
      (check_ok "lookup" (Relation.lookup ctx desc ~attachment_id:at_id ~instance ~key))
  in
  Alcotest.(check int) "by_id" 1 (lookup 1 [| vi 1 |]);
  Alcotest.(check int) "by_dept" 2 (lookup 2 [| vs "eng" |]);
  Alcotest.(check int) "by_dept_sal prefix" 2 (lookup 3 [| vs "eng" |]);
  Alcotest.(check int) "by_dept_sal full" 1 (lookup 3 [| vs "eng"; vi 20 |]);
  (* dropping the middle instance leaves the others *)
  check_ok "drop"
    (Ddl.drop_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"by_dept");
  Alcotest.(check (list string)) "two left" [ "by_id"; "by_dept_sal" ]
    (Dmx_attach.Btree_index.instance_names desc);
  ignore (check_ok "ins3" (Relation.insert ctx desc (emp 3 "c" "ops" 30)));
  Alcotest.(check int) "survivors maintained" 1 (lookup 1 [| vi 3 |]);
  Services.commit services ctx

let test_hash_overflow_chains () =
  let services = fresh_services () in
  let ctx, desc = setup services in
  (* one logical bucket + a thousand entries: a page holds about 290, so
     the bucket's page chains overflow pages *)
  check_ok "hash"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"hash_index"
       ~name:"h" ~attrs:[ ("fields", "id"); ("buckets", "1") ] ());
  for i = 1 to 1000 do
    ignore (check_ok "ins" (Relation.insert ctx desc (emp i "x" "d" i)))
  done;
  (match Dmx_attach.Hash_index.check_invariants ctx desc with
  | Ok pages -> Alcotest.(check bool) "a chain of pages" true (pages >= 3)
  | Error msg -> Alcotest.failf "layout: %s" msg);
  let at_id = Option.get (Registry.attachment_id "hash_index") in
  for i = 1 to 1000 do
    if i mod 13 = 0 then begin
      let hits =
        check_ok "lookup"
          (Relation.lookup ctx desc ~attachment_id:at_id ~instance:1
             ~key:[| vi i |])
      in
      Alcotest.(check int) (Fmt.str "find %d in chain" i) 1 (List.length hits)
    end
  done;
  (* deletes traverse chains too *)
  let scan = check_ok "scan" (Relation.scan ctx desc ()) in
  let all = Dmx_core.Scan_help.record_scan_to_list scan in
  List.iteri
    (fun i (key, _) ->
      if i mod 2 = 0 then ignore (check_ok "del" (Relation.delete ctx desc key)))
    all;
  let hits i =
    List.length
      (check_ok "lookup"
         (Relation.lookup ctx desc ~attachment_id:at_id ~instance:1
            ~key:[| vi i |]))
  in
  let live = ref 0 in
  for i = 1 to 1000 do
    live := !live + hits i
  done;
  Alcotest.(check int) "chain deletes consistent" 500 !live;
  (match Dmx_attach.Hash_index.check_invariants ctx desc with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "layout after deletes: %s" msg);
  Services.commit services ctx

let test_refint_child_update () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let dept_schema =
    Schema.make_exn
      [ Schema.column ~nullable:false "name" Value.Tstring ]
  in
  ignore
    (check_ok "dept"
       (Ddl.create_relation ctx ~name:"dept" ~schema:dept_schema
          ~storage_method:"heap" ()));
  let empd =
    check_ok "emp"
      (Ddl.create_relation ctx ~name:"emp" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  let dept = check_ok "find" (Ddl.find_relation ctx "dept") in
  ignore (check_ok "d1" (Relation.insert ctx dept [| vs "eng" |]));
  ignore (check_ok "d2" (Relation.insert ctx dept [| vs "ops" |]));
  check_ok "fk"
    (Ddl.create_attachment ctx ~relation:"emp" ~attachment_type:"refint"
       ~name:"fk"
       ~attrs:
         [ ("fields", "dept"); ("parent", "dept"); ("parent_fields", "name") ]
       ());
  let k = check_ok "child" (Relation.insert ctx empd (emp 1 "a" "eng" 1)) in
  (* updating the FK to another existing parent: fine *)
  let k =
    check_ok "update to ops" (Relation.update ctx empd k (emp 1 "a" "ops" 1))
  in
  (* updating to a missing parent: vetoed, and the update is undone *)
  (match Relation.update ctx empd k (emp 1 "a" "mars" 1) with
  | Error (Error.Veto _) -> ()
  | _ -> Alcotest.fail "orphaning update accepted");
  (match check_ok "fetch" (Relation.fetch ctx empd k ()) with
  | Some r -> Alcotest.check value_testable "still ops" (vs "ops") r.(2)
  | None -> Alcotest.fail "record lost");
  (* updating a non-FK field doesn't re-check (would pass anyway) *)
  ignore (check_ok "benign" (Relation.update ctx empd k (emp 1 "a2" "ops" 2)));
  Services.commit services ctx

let test_refint_deferred () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let dept_schema =
    Schema.make_exn [ Schema.column ~nullable:false "name" Value.Tstring ]
  in
  ignore
    (check_ok "dept"
       (Ddl.create_relation ctx ~name:"dept" ~schema:dept_schema
          ~storage_method:"heap" ()));
  let empd =
    check_ok "emp"
      (Ddl.create_relation ctx ~name:"emp" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  check_ok "fk"
    (Ddl.create_attachment ctx ~relation:"emp" ~attachment_type:"refint"
       ~name:"fk"
       ~attrs:
         [
           ("fields", "dept"); ("parent", "dept"); ("parent_fields", "name");
           ("deferred", "true");
         ]
       ());
  (* child inserted before its parent: allowed now, checked at commit *)
  ignore (check_ok "child first" (Relation.insert ctx empd (emp 1 "a" "eng" 1)));
  let dept = check_ok "find" (Ddl.find_relation ctx "dept") in
  ignore (check_ok "parent later" (Relation.insert ctx dept [| vs "eng" |]));
  Services.commit services ctx;
  (* now the violating case: child without parent at commit time *)
  let ctx = Services.begin_txn services in
  let empd = check_ok "find" (Ddl.find_relation ctx "emp") in
  ignore (check_ok "orphan" (Relation.insert ctx empd (emp 2 "b" "mars" 1)));
  (match Services.commit services ctx with
  | exception Error.Error (Error.Veto _) -> ()
  | () -> Alcotest.fail "deferred orphan committed");
  let ctx = Services.begin_txn services in
  let empd = check_ok "find" (Ddl.find_relation ctx "emp") in
  Alcotest.(check int) "orphan rolled back" 1 (count_records ctx empd);
  Services.commit services ctx

let test_attachment_ddl_validation () =
  let services = fresh_services () in
  let ctx, _desc = setup services in
  let att ty name attrs =
    Ddl.create_attachment ctx ~relation:"t" ~attachment_type:ty ~name ~attrs ()
  in
  (* unknown fields *)
  (match att "btree_index" "i" [ ("fields", "nosuch") ] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "bad fields accepted");
  (* missing required *)
  (match att "btree_index" "i" [] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "missing fields accepted");
  (* bad predicate *)
  (match att "check" "c" [ ("predicate", "nosuchcol > 1") ] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "bad predicate accepted");
  (* rect needs exactly 4 columns *)
  (match att "rtree_index" "r" [ ("rect", "id,salary") ] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "bad rect accepted");
  (* unknown trigger function *)
  (match att "trigger" "tr" [ ("function", "nosuch"); ("events", "insert") ] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "unknown trigger function accepted");
  (* unknown attachment type *)
  (match att "martian" "m" [] with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "unknown attachment type accepted");
  (* every attachment type: a duplicate instance name is a DDL error with
     the type's own message, and dropping a missing instance (with the slot
     NULL, then with the slot holding another instance) fails *)
  ignore
    (check_ok "parent"
       (Ddl.create_relation ctx ~name:"p"
          ~schema:(Schema.make_exn [ Schema.column "name" Value.Tstring ])
          ~storage_method:"heap" ()));
  ignore
    (check_ok "box"
       (Ddl.create_relation ctx ~name:"box"
          ~schema:
            (Schema.make_exn
               (List.map
                  (fun c -> Schema.column c Value.Tfloat)
                  [ "xlo"; "ylo"; "xhi"; "yhi" ]))
          ~storage_method:"heap" ()));
  List.iter
    (fun (ty, relation, attrs, what) ->
      let create () =
        Ddl.create_attachment ctx ~relation ~attachment_type:ty ~name:"dup"
          ~attrs ()
      in
      let drop_missing () =
        match
          Ddl.drop_attachment ctx ~relation ~attachment_type:ty ~name:"nosuch"
        with
        | Error (Error.No_such_attachment "nosuch") -> ()
        | _ -> Alcotest.failf "%s: dropping a missing instance succeeded" ty
      in
      drop_missing ();
      check_ok (ty ^ " first") (create ());
      (match create () with
      | Error (Error.Ddl_error msg) ->
        Alcotest.(check string) (ty ^ " duplicate message")
          (Fmt.str "%s \"dup\" already exists" what) msg
      | _ -> Alcotest.failf "%s: duplicate instance name accepted" ty);
      drop_missing ())
    [
      ("btree_index", "t", [ ("fields", "id") ], "index");
      ("hash_index", "t", [ ("fields", "id") ], "hash index");
      ("rtree_index", "box", [ ("rect", "xlo,ylo,xhi,yhi") ], "rtree index");
      ("check", "t", [ ("predicate", "salary > 0") ], "constraint");
      ("agg", "t", [ ("group", "dept"); ("sum", "salary") ], "aggregate");
      ("stats", "t", [ ("fields", "salary") ], "stats instance");
      ( "trigger", "t", [ ("function", "audit"); ("events", "insert") ],
        "trigger" );
      ( "refint", "t",
        [ ("fields", "dept"); ("parent", "p"); ("parent_fields", "name") ],
        "constraint" );
      ( "join_index", "t",
        [ ("field", "dept"); ("other", "p"); ("other_field", "name") ],
        "join index" );
    ];
  Services.abort services ctx

(* Cross-relation attachments declared on their own relation: the mirror
   instance lands in the same slot as the declared one and must survive its
   installation. Self-referential refint must veto deleting a referenced
   parent; a self-join index must hold exactly the nested-loop pairs. *)
let test_self_relation_mirrors () =
  let staff_schema =
    Schema.make_exn
      [
        Schema.column ~nullable:false "id" Value.Tint;
        Schema.column "boss" Value.Tint;
      ]
  in
  let staff () =
    let services = fresh_services () in
    let ctx = Services.begin_txn services in
    let desc =
      check_ok "staff"
        (Ddl.create_relation ctx ~name:"staff" ~schema:staff_schema
           ~storage_method:"heap" ())
    in
    (services, ctx, desc)
  in
  let slot desc ty =
    Dmx_catalog.Descriptor.attachment_desc desc
      (Option.get (Registry.attachment_id ty))
  in
  let drop_leaves_null ctx desc ty name =
    check_ok "drop"
      (Ddl.drop_attachment ctx ~relation:"staff" ~attachment_type:ty ~name);
    Alcotest.(check (option string)) (ty ^ " slot NULL") None (slot desc ty)
  in
  let row id boss =
    [| vi id; (match boss with None -> Value.Null | Some b -> vi b) |]
  in
  (* refint staff.boss -> staff.id, restrict *)
  let services, ctx, desc = staff () in
  check_ok "fk"
    (Ddl.create_attachment ctx ~relation:"staff" ~attachment_type:"refint"
       ~name:"boss_fk"
       ~attrs:
         [ ("fields", "boss"); ("parent", "staff"); ("parent_fields", "id") ]
       ());
  let k4 = check_ok "4" (Relation.insert ctx desc (row 4 None)) in
  ignore (check_ok "5" (Relation.insert ctx desc (row 5 (Some 4))));
  ignore (check_ok "2" (Relation.insert ctx desc (row 2 (Some 4))));
  (match Relation.delete ctx desc k4 with
  | Error (Error.Veto _) -> ()
  | _ -> Alcotest.fail "deleting a referenced parent accepted");
  Alcotest.(check int) "nothing orphaned" 3 (count_records ctx desc);
  drop_leaves_null ctx desc "refint" "boss_fk";
  Services.abort services ctx;
  (* join index staff.boss = staff.id *)
  let services, ctx, desc = staff () in
  check_ok "ji"
    (Ddl.create_attachment ctx ~relation:"staff" ~attachment_type:"join_index"
       ~name:"boss_ji"
       ~attrs:[ ("field", "boss"); ("other", "staff"); ("other_field", "id") ]
       ());
  let rows =
    List.map
      (fun (id, boss) ->
        let r = row id boss in
        (check_ok "ins" (Relation.insert ctx desc r), r))
      [ (5, Some 4); (4, None); (2, Some 4) ]
  in
  let unordered pairs =
    List.map
      (fun (a, b) -> if Record_key.compare a b <= 0 then (a, b) else (b, a))
      pairs
    |> List.sort compare
  in
  let nested_loop =
    List.concat_map
      (fun (rk, r) ->
        List.filter_map
          (fun (sk, s) ->
            if r.(1) <> Value.Null && Value.equal r.(1) s.(0) then Some (rk, sk)
            else None)
          rows)
      rows
  in
  let key = Alcotest.testable Record_key.pp Record_key.equal in
  Alcotest.(check (list (pair key key))) "pairs = nested loop"
    (unordered nested_loop)
    (unordered (Dmx_attach.Join_index.pairs ctx desc ~name:"boss_ji"));
  drop_leaves_null ctx desc "join_index" "boss_ji";
  Services.abort services ctx

let test_index_build_from_existing () =
  let services = fresh_services () in
  let ctx, desc = setup services in
  ignore (check_ok "a" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
  ignore (check_ok "b" (Relation.insert ctx desc (emp 2 "b" "ops" 2)));
  (* index created after data: built from current contents *)
  check_ok "late index"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"late" ~attrs:[ ("fields", "id") ] ());
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  Alcotest.(check int) "existing indexed" 1
    (List.length
       (check_ok "lookup"
          (Relation.lookup ctx desc ~attachment_id:at_id ~instance:1
             ~key:[| vi 2 |])));
  (* a unique index over data that violates it is refused *)
  ignore (check_ok "dup salary" (Relation.insert ctx desc (emp 3 "c" "eng" 1)));
  (match
     Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"u" ~attrs:[ ("fields", "salary"); ("unique", "true") ] ()
   with
  | Error (Error.Constraint_violation _) -> ()
  | _ -> Alcotest.fail "unique index built over duplicates");
  (* a check constraint over violating data is refused *)
  (match
     Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"check"
       ~name:"big" ~attrs:[ ("predicate", "salary > 100") ] ()
   with
  | Error (Error.Constraint_violation _) -> ()
  | _ -> Alcotest.fail "check constraint built over violations");
  Services.commit services ctx

(* Three-level cascade with indexes and triggers riding along: deleting the
   grandparent chains through two refint attachments, and every cascaded
   delete runs its own relation's full attachment set. *)
let test_deep_cascade_with_attachments () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let one_key_schema name =
    ignore name;
    Schema.make_exn
      [
        Schema.column ~nullable:false "id" Value.Tint;
        Schema.column "parent" Value.Tint;
      ]
  in
  let mk name =
    check_ok name
      (Ddl.create_relation ctx ~name ~schema:(one_key_schema name)
         ~storage_method:"heap" ())
  in
  let a = mk "a" and b = mk "b" and c = mk "c" in
  let fk child parent =
    check_ok "fk"
      (Ddl.create_attachment ctx ~relation:child ~attachment_type:"refint"
         ~name:(child ^ "_" ^ parent)
         ~attrs:
           [
             ("fields", "parent"); ("parent", parent); ("parent_fields", "id");
             ("on_delete", "cascade");
           ]
         ())
  in
  fk "b" "a";
  fk "c" "b";
  (* indexes on every level so cascaded deletes maintain them *)
  List.iter
    (fun rel ->
      check_ok "idx"
        (Ddl.create_attachment ctx ~relation:rel ~attachment_type:"btree_index"
           ~name:(rel ^ "_pk")
           ~attrs:[ ("fields", "id"); ("unique", "true") ] ()))
    [ "a"; "b"; "c" ];
  audit_log := [];
  check_ok "audit c"
    (Ddl.create_attachment ctx ~relation:"c" ~attachment_type:"trigger"
       ~name:"c_audit"
       ~attrs:[ ("function", "audit"); ("events", "delete") ] ());
  let ka = check_ok "a1" (Relation.insert ctx a [| vi 1; Value.Null |]) in
  ignore (check_ok "b1" (Relation.insert ctx b [| vi 10; vi 1 |]));
  ignore (check_ok "b2" (Relation.insert ctx b [| vi 11; vi 1 |]));
  ignore (check_ok "c1" (Relation.insert ctx c [| vi 100; vi 10 |]));
  ignore (check_ok "c2" (Relation.insert ctx c [| vi 101; vi 10 |]));
  ignore (check_ok "c3" (Relation.insert ctx c [| vi 102; vi 11 |]));
  (* delete the grandparent: everything cascades *)
  ignore (check_ok "cascade" (Relation.delete ctx a ka));
  Alcotest.(check int) "a empty" 0 (count_records ctx a);
  Alcotest.(check int) "b cascaded" 0 (count_records ctx b);
  Alcotest.(check int) "c cascaded" 0 (count_records ctx c);
  (* triggers fired once per cascaded grandchild delete *)
  Alcotest.(check int) "grandchild triggers" 3 (List.length !audit_log);
  (* the grandchild index followed the cascade *)
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  Alcotest.(check int) "index empty" 0
    (List.length
       (check_ok "lookup"
          (Relation.lookup ctx c ~attachment_id:at_id ~instance:1
             ~key:[| vi 100 |])));
  (* and the whole cascade is undoable: savepoint + repeat + rollback *)
  let ka =
    check_ok "a again" (Relation.insert ctx a [| vi 1; Value.Null |])
  in
  ignore (check_ok "b again" (Relation.insert ctx b [| vi 10; vi 1 |]));
  ignore (check_ok "c again" (Relation.insert ctx c [| vi 100; vi 10 |]));
  Services.savepoint ctx "sp";
  ignore (check_ok "cascade2" (Relation.delete ctx a ka));
  Alcotest.(check int) "gone" 0 (count_records ctx c);
  Services.rollback_to ctx "sp";
  Alcotest.(check int) "cascade undone a" 1 (count_records ctx a);
  Alcotest.(check int) "cascade undone b" 1 (count_records ctx b);
  Alcotest.(check int) "cascade undone c" 1 (count_records ctx c);
  Services.commit services ctx

let test_agg_attachment () =
  let services = fresh_services () in
  let ctx, desc = setup services in
  check_ok "agg"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"agg"
       ~name:"sal_by_dept"
       ~attrs:[ ("group", "dept"); ("sum", "salary") ] ());
  let keys =
    List.map
      (fun (i, d, s) ->
        (i, check_ok "ins" (Relation.insert ctx desc (emp i "x" d s))))
      [ (1, "eng", 100); (2, "eng", 200); (3, "ops", 50); (4, "eng", 1) ]
  in
  let groups () =
    Dmx_attach.Agg.groups ctx desc ~name:"sal_by_dept"
    |> List.map (fun g ->
           ( Value.to_string g.Dmx_attach.Agg.group_values.(0),
             g.count,
             Int64.to_int g.sum ))
  in
  Alcotest.(check (list (triple string int int)))
    "initial groups"
    [ ("\"eng\"", 3, 301); ("\"ops\"", 1, 50) ]
    (groups ());
  (* update moving a record between groups *)
  let k2 = List.assoc 2 keys in
  ignore (check_ok "move" (Relation.update ctx desc k2 (emp 2 "x" "ops" 200)));
  Alcotest.(check (list (triple string int int)))
    "after move"
    [ ("\"eng\"", 2, 101); ("\"ops\"", 2, 250) ]
    (groups ());
  (* delete erases a group when count reaches zero *)
  ignore (check_ok "del" (Relation.delete ctx desc (List.assoc 3 keys)));
  ignore (check_ok "del2" (Relation.delete ctx desc k2));
  Alcotest.(check (list (triple string int int)))
    "ops gone"
    [ ("\"eng\"", 2, 101) ]
    (groups ());
  (* transactionally exact: savepoint + rollback restores the aggregates *)
  Services.savepoint ctx "sp";
  ignore (check_ok "ins" (Relation.insert ctx desc (emp 9 "x" "hr" 77)));
  ignore (check_ok "del3" (Relation.delete ctx desc (List.assoc 1 keys)));
  Services.rollback_to ctx "sp";
  Alcotest.(check (list (triple string int int)))
    "restored"
    [ ("\"eng\"", 2, 101) ]
    (groups ());
  (* point lookup *)
  (match Dmx_attach.Agg.group ctx desc ~name:"sal_by_dept" ~key:[| vs "eng" |] with
  | Some g -> Alcotest.(check int) "eng count" 2 g.Dmx_attach.Agg.count
  | None -> Alcotest.fail "group missing");
  Services.commit services ctx

(* An aggregate built over existing rows holds what one maintained row by
   row holds: both instances on one relation, over enough groups that the
   build spans several leaves. *)
let test_agg_build_matches_maintained () =
  let services = fresh_services () in
  let ctx, desc = setup services in
  let attrs group = [ ("group", group); ("sum", "salary") ] in
  let create name group =
    check_ok name
      (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"agg" ~name
         ~attrs:(attrs group) ())
  in
  create "live_id" "id";
  create "live_dept" "dept,name";
  for i = 1 to 1500 do
    ignore
      (check_ok "ins"
         (Relation.insert ctx desc
            (emp (i mod 700)
               (Fmt.str "n%d" (i mod 3))
               (Fmt.str "d%d" (i mod 11))
               ((i * 37 mod 1000) - 500))))
  done;
  create "built_id" "id";
  create "built_dept" "dept,name";
  let groups name =
    Dmx_attach.Agg.groups ctx desc ~name
    |> List.map (fun g ->
           ( Array.to_list
               (Array.map Value.to_string g.Dmx_attach.Agg.group_values),
             g.count,
             g.sum ))
  in
  List.iter
    (fun (live, built, n) ->
      Alcotest.(check int) (live ^ " groups") n (List.length (groups live));
      Alcotest.(check bool) (built ^ " = " ^ live) true
        (groups built = groups live))
    [ ("live_id", "built_id", 700); ("live_dept", "built_dept", 33) ];
  Services.commit services ctx

(* A unique index over records that repeat a key far apart in scan order
   is refused, naming the key; over distinct keys it is built. *)
let test_unique_build_refuses_far_duplicate () =
  let services = fresh_services () in
  let ctx, desc = setup services in
  for i = 1 to 600 do
    ignore
      (check_ok "ins"
         (Relation.insert ctx desc (emp i "x" "d" (if i = 590 then 3 else i))))
  done;
  (match
     Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"u" ~attrs:[ ("fields", "salary"); ("unique", "true") ] ()
   with
  | Error (Error.Constraint_violation msg) ->
    Alcotest.(check string) "names the key" "existing records duplicate key (3)"
      msg
  | _ -> Alcotest.fail "unique index built over duplicates");
  Alcotest.(check (list string)) "no instance added" []
    (Dmx_attach.Btree_index.instance_names desc);
  check_ok "unique id"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"pk" ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  for i = 1 to 600 do
    Alcotest.(check int) "one entry per id" 1
      (List.length
         (check_ok "lookup"
            (Relation.lookup ctx desc ~attachment_id:at_id ~instance:1
               ~key:[| vi i |])))
  done;
  Services.commit services ctx

(* A unique index's point lookup pins the tree's height in pages and stops:
   a two-level index pins root and leaf. A non-unique index over the same
   field pins its leaves once more to see the key's run end. *)
let test_unique_lookup_pins_height () =
  let services = fresh_services () in
  let ctx, desc = setup services in
  ignore
    (check_ok "load"
       (Relation.insert_many ctx desc
          (Array.init 3000 (fun i -> emp i "x" "d" i))));
  List.iter
    (fun (name, unique) ->
      check_ok name
        (Ddl.create_attachment ctx ~relation:"t"
           ~attachment_type:"btree_index" ~name
           ~attrs:[ ("fields", "id"); ("unique", unique) ] ()))
    [ ("pk", "true"); ("by_id", "false") ];
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  let slot = Option.get (Dmx_catalog.Descriptor.attachment_desc desc at_id) in
  let io = Dmx_page.Disk.stats (Dmx_page.Buffer_pool.disk ctx.Ctx.bp) in
  let lookup instance i =
    let before = Dmx_page.Io_stats.copy io in
    let keys =
      Dmx_attach.Btree_index.lookup ctx desc ~slot ~instance ~key:[| vi i |]
    in
    let d = Dmx_page.Io_stats.diff ~after:io ~before in
    (List.length keys, d.pool_hits + d.pool_misses)
  in
  List.iter
    (fun i ->
      Alcotest.(check (pair int int)) (Fmt.str "unique %d" i) (1, 2)
        (lookup 1 i);
      let found, pins = lookup 2 i in
      Alcotest.(check int) (Fmt.str "non-unique %d" i) 1 found;
      if pins < 3 then Alcotest.failf "non-unique %d pinned %d pages" i pins)
    [ 0; 1; 1234; 2999 ];
  Services.commit services ctx

(* The tree of btree_index instance [no] of [desc], read from the
   descriptor slot, where each instance is its number, name, indexed
   fields, unique flag and root. *)
let index_tree ctx desc no =
  let at_id = Option.get (Registry.attachment_id "btree_index") in
  let slot = Option.get (Dmx_catalog.Descriptor.attachment_desc desc at_id) in
  let roots =
    Codec.Dec.list (Codec.Dec.of_string slot) (fun d ->
        let no = Codec.Dec.varint d in
        ignore (Codec.Dec.string d);
        ignore (Codec.Dec.list d Codec.Dec.varint);
        ignore (Codec.Dec.bool d);
        (no, Codec.Dec.varint d))
  in
  Dmx_btree.Btree.open_tree ctx.Ctx.bp ~root:(List.assoc no roots)

(* A unique index's single-row insert is vetoed when the entry holding its
   field value sits in the neighbouring leaf: the last entry of the left
   leaf, or the first entry of the right one. Over a B-tree-organised
   relation an entry's key is the name, then the encoded [id]; names of
   400 bytes put about nine entries in a leaf. *)
let test_unique_veto_across_leaves () =
  let module Btree = Dmx_btree.Btree in
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"btree" ~attrs:[ ("key", "id") ] ())
  in
  check_ok "index"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"u" ~attrs:[ ("fields", "name"); ("unique", "true") ] ());
  let name i = Fmt.str "%03d%s" i (String.make 400 'n') in
  let row id i = emp id (name i) "d" id in
  for i = 1 to 40 do
    ignore (check_ok "ins" (Relation.insert ctx desc (row i i)))
  done;
  let tree = index_tree ctx desc 1 in
  let reckey id =
    Dmx_attach.Attach_util.encode_reckey_value (Record_key.fields [| vi id |])
  in
  let key i id = [| vs (name i); reckey id |] in
  (* rows 2..40 whose entry opens its leaf and is its left separator *)
  let opens =
    List.filter
      (fun i -> fst (Btree.window tree (key i i)) = Some (key i i))
      (List.init 39 (fun i -> i + 2))
  in
  let x, x2 =
    match opens with
    | x :: x2 :: _ -> (x, x2)
    | _ -> Alcotest.fail "fewer than three leaves"
  in
  (* an id from [from] on whose entry sorts below row [i]'s under the same
     name *)
  let below ~from i =
    List.find
      (fun id -> Value.compare (reckey id) (reckey i) < 0)
      (List.init 1000 (fun j -> from + j))
  in
  let vetoed what id i =
    (match Relation.insert ctx desc (row id i) with
    | Error (Error.Veto _) -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e));
    Alcotest.(check bool) (what ^ ": no record") true
      (Relation.fetch ctx desc (Record_key.fields [| vi id |]) () = Ok None)
  in
  (* left: row [x] leaves, its separator stays; [y] takes its name below
     the separator, the last entry of the left leaf. An entry at or above
     the separator opens the right leaf. *)
  ignore
    (check_ok "delete"
       (Relation.delete ctx desc (Record_key.fields [| vi x |])));
  let y = below ~from:1000 x in
  ignore (check_ok "y" (Relation.insert ctx desc (row y x)));
  Alcotest.(check bool) "y ends the left leaf" true
    (snd (Btree.window tree (key x y)) = Some (key x x));
  vetoed "held by the left leaf's last entry" x x;
  (* right: row [x2] opens its leaf; an entry under its name below it
     ends the left leaf *)
  let z = below ~from:3000 x2 in
  Alcotest.(check bool) "z would end the left leaf" true
    (snd (Btree.window tree (key x2 z)) = Some (key x2 x2));
  vetoed "held by the right leaf's first entry" z x2;
  ignore
    (check_ok "a new name" (Relation.insert ctx desc (row 5000 (x2 + 100))));
  Services.commit services ctx

(* An index entry's record-key field is always an encoded string; anything
   else is a corrupt entry, reported through the error discipline. *)
let test_decode_reckey_rejects_non_string () =
  match Dmx_attach.Attach_util.decode_reckey_value (vi 7) with
  | exception Error.Error (Error.Internal _) -> ()
  | _ -> Alcotest.fail "a non-string record key decoded"

(* A rectangle with a NULL corner makes no R-tree entry: building the
   index over such a record is refused with an error, and inserting one
   into an indexed relation is vetoed; a NULL query rectangle finds
   nothing. *)
let test_rtree_null_rectangle () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "box"
      (Ddl.create_relation ctx ~name:"box"
         ~schema:
           (Schema.make_exn
              (List.map
                 (fun c -> Schema.column c Value.Tfloat)
                 [ "xlo"; "ylo"; "xhi"; "yhi" ]))
         ~storage_method:"heap" ())
  in
  let f x = Value.Float x in
  let null_row = [| Value.Null; f 0.; f 1.; f 1. |] in
  let create () =
    Ddl.create_attachment ctx ~relation:"box" ~attachment_type:"rtree_index"
      ~name:"r" ~attrs:[ ("rect", "xlo,ylo,xhi,yhi") ] ()
  in
  let key = check_ok "insert" (Relation.insert ctx desc null_row) in
  (match create () with
  | Error (Error.Constraint_violation msg) ->
    Alcotest.(check string) "build refusal"
      "existing records: rtree: non-numeric rectangle value NULL" msg
  | Ok () -> Alcotest.fail "an R-tree was built over a NULL rectangle"
  | Error e -> Alcotest.failf "build: %s" (Error.to_string e));
  ignore (check_ok "delete" (Relation.delete ctx desc key));
  check_ok "build over no records" (create ());
  (match Relation.insert ctx desc null_row with
  | Error (Error.Veto _) -> ()
  | Ok _ -> Alcotest.fail "a NULL rectangle was indexed"
  | Error e -> Alcotest.failf "insert: %s" (Error.to_string e));
  ignore
    (check_ok "insert" (Relation.insert ctx desc [| f 0.; f 0.; f 1.; f 1. |]));
  let found key =
    List.length
      (check_ok "lookup"
         (Relation.lookup ctx desc
            ~attachment_id:(Option.get (Registry.attachment_id "rtree_index"))
            ~instance:1 ~key))
  in
  Alcotest.(check int) "an enclosing query rectangle finds the record" 1
    (found [| f (-1.); f (-1.); f 2.; f 2. |]);
  Alcotest.(check int) "a NULL query rectangle finds nothing" 0
    (found [| Value.Null; f (-1.); f 2.; f 2. |]);
  Services.abort services ctx

let suite =
  [
    Alcotest.test_case "multiple instances in one slot" `Quick
      test_multiple_instances_one_slot;
    Alcotest.test_case "materialised aggregation" `Quick test_agg_attachment;
    Alcotest.test_case "three-level cascade with attachments" `Quick
      test_deep_cascade_with_attachments;
    Alcotest.test_case "hash overflow chains" `Quick test_hash_overflow_chains;
    Alcotest.test_case "refint on child update" `Quick test_refint_child_update;
    Alcotest.test_case "deferred refint" `Quick test_refint_deferred;
    Alcotest.test_case "attachment DDL validation" `Quick
      test_attachment_ddl_validation;
    Alcotest.test_case "mirror instances on the same relation" `Quick
      test_self_relation_mirrors;
    Alcotest.test_case "agg built over rows = agg maintained per row" `Quick
      test_agg_build_matches_maintained;
    Alcotest.test_case "unique build refuses a far duplicate" `Quick
      test_unique_build_refuses_far_duplicate;
    Alcotest.test_case "unique lookup pins the tree height" `Quick
      test_unique_lookup_pins_height;
    Alcotest.test_case "building attachments from existing records" `Quick
      test_index_build_from_existing;
    Alcotest.test_case "unique veto across a leaf edge" `Quick
      test_unique_veto_across_leaves;
    Alcotest.test_case "a non-string record key raises Internal" `Quick
      test_decode_reckey_rejects_non_string;
    Alcotest.test_case "an R-tree refuses a NULL rectangle" `Quick
      test_rtree_null_rectangle;
  ]
