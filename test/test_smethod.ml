(* Storage-method edge cases exercised directly through the generic
   interfaces. *)
open Dmx_value
open Dmx_core
open Test_util
module Ddl = Dmx_ddl.Ddl
module Relation = Dmx_core.Relation

let big_string n c = String.make n c

let test_heap_grows_pages () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  (* large-ish records force multiple pages *)
  let keys =
    List.init 300 (fun i ->
        check_ok "ins"
          (Relation.insert ctx desc
             [| vi i; vs (big_string 100 'x'); vs "d"; vi i |]))
  in
  Alcotest.(check int) "count" 300
    (check_ok "count" (Relation.record_count ctx desc));
  (* keys span multiple pages *)
  let pages =
    List.filter_map
      (function Record_key.Rid { page; _ } -> Some page | _ -> None)
      keys
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "many pages" true (List.length pages > 3);
  (* every key fetches its record *)
  List.iteri
    (fun i key ->
      match check_ok "fetch" (Relation.fetch ctx desc key ()) with
      | Some r -> Alcotest.check value_testable "id" (vi i) r.(0)
      | None -> Alcotest.failf "record %d lost" i)
    keys;
  Services.commit services ctx

let test_heap_update_relocates () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  (* fill the first page almost completely so a grown record must move *)
  let key0 =
    check_ok "ins" (Relation.insert ctx desc [| vi 0; vs "small"; vs "d"; vi 0 |])
  in
  for i = 1 to 30 do
    ignore
      (check_ok "fill"
         (Relation.insert ctx desc
            [| vi i; vs (big_string 120 'f'); vs "d"; vi i |]))
  done;
  let new_key =
    check_ok "grow"
      (Relation.update ctx desc key0
         [| vi 0; vs (big_string 600 'G'); vs "d"; vi 0 |])
  in
  (* whether it moved or not, old key resolves to nothing if key changed *)
  (match check_ok "fetch new" (Relation.fetch ctx desc new_key ()) with
  | Some r -> Alcotest.(check int) "grown" 600
      (String.length (Option.get (Value.to_string_opt r.(1))))
  | None -> Alcotest.fail "updated record lost");
  if not (Record_key.equal key0 new_key) then begin
    match check_ok "fetch old" (Relation.fetch ctx desc key0 ()) with
    | None -> ()
    | Some _ -> Alcotest.fail "old key still resolves after relocation"
  end;
  Alcotest.(check int) "still 31 records" 31
    (check_ok "count" (Relation.record_count ctx desc));
  Services.commit services ctx

(* Two 1,500-byte rows share one heap page. T1 frees most of the first
   row's bytes ([free] deletes or shrinks it), T2 grows the second to 2,600
   bytes and commits, then T1 aborts: its undo needs those bytes back, so
   T2's grow must not have taken them. Both rows survive the abort. *)
let heap_freed_bytes_survive_abort free () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  let row i n = [| vi i; vs (big_string n 'r'); vs "d"; vi i |] in
  let k0 = check_ok "row 0" (Relation.insert ctx desc (row 0 1500)) in
  let k1 = check_ok "row 1" (Relation.insert ctx desc (row 1 1500)) in
  (match (k0, k1) with
  | Record_key.Rid { page = p0; _ }, Record_key.Rid { page = p1; _ } ->
    Alcotest.(check int) "one page" p0 p1
  | _ -> Alcotest.fail "heap keys are RIDs");
  Services.commit services ctx;
  let t1 = Services.begin_txn services in
  let desc1 = check_ok "find" (Ddl.find_relation t1 "t") in
  free t1 desc1 k0;
  let t2 = Services.begin_txn services in
  let desc2 = check_ok "find" (Ddl.find_relation t2 "t") in
  ignore (check_ok "grow" (Relation.update t2 desc2 k1 (row 1 2600)));
  Services.commit services t2;
  Services.abort services t1;
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "t") in
  Alcotest.(check (list int)) "name lengths" [ 1500; 2600 ]
    (List.map
       (fun r -> String.length (Option.get (Value.to_string_opt r.(1))))
       (all_records ctx desc));
  Services.commit services ctx

let test_heap_abort_reinstates_delete =
  heap_freed_bytes_survive_abort (fun ctx desc key ->
      ignore (check_ok "delete" (Relation.delete ctx desc key)))

let test_heap_abort_regrows_shrink =
  heap_freed_bytes_survive_abort (fun ctx desc key ->
      Alcotest.(check bool) "shrunk in place" true
        (Record_key.equal key
           (check_ok "shrink"
              (Relation.update ctx desc key [| vi 0; vs "s"; vs "d"; vi 0 |]))))

(* T1 deletes a row and rolls back to a savepoint taken before: the row is
   back, so T1 no longer holds its bytes, and T2 can grow the other row on
   the page in place while T1 is still running. *)
let test_heap_rollback_releases_held_bytes () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  let row i n = [| vi i; vs (big_string n 'r'); vs "d"; vi i |] in
  let k0 = check_ok "row 0" (Relation.insert ctx desc (row 0 1500)) in
  let k1 = check_ok "row 1" (Relation.insert ctx desc (row 1 1500)) in
  Services.commit services ctx;
  let t1 = Services.begin_txn services in
  let desc1 = check_ok "find" (Ddl.find_relation t1 "t") in
  Services.savepoint t1 "s";
  ignore (check_ok "delete" (Relation.delete t1 desc1 k0));
  Services.rollback_to t1 "s";
  let t2 = Services.begin_txn services in
  let desc2 = check_ok "find" (Ddl.find_relation t2 "t") in
  Alcotest.(check bool) "grown in place" true
    (Record_key.equal k1
       (check_ok "grow" (Relation.update t2 desc2 k1 (row 1 2000))));
  Services.commit services t2;
  Services.commit services t1

let test_heap_under_tiny_pool_file_backed () =
  (* evictions + reloads through a 8-frame pool against a real file *)
  with_temp_dir ~prefix:"dmx_tiny" (fun dir ->
      ignore (Lazy.force registered);
      let services = Dmx_core.Services.setup ~dir ~pool_capacity:8 () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      let keys =
        List.init 500 (fun i ->
            check_ok "ins"
              (Relation.insert ctx desc
                 [| vi i; vs (big_string 80 'y'); vs "d"; vi i |]))
      in
      (* random access pattern forces evict + reread *)
      List.iteri
        (fun i key ->
          if i mod 7 = 0 then
            match check_ok "fetch" (Relation.fetch ctx desc key ()) with
            | Some r -> Alcotest.check value_testable "id" (vi i) r.(0)
            | None -> Alcotest.failf "record %d lost under eviction" i)
        keys;
      Services.commit services ctx;
      let io = Services.io_stats services in
      Alcotest.(check bool) "evictions wrote pages" true
        (io.Dmx_page.Io_stats.page_writes > 8);
      Services.close services)

let test_temp_unlogged_semantics () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"scratch" ~schema:emp_schema
         ~storage_method:"temp" ())
  in
  ignore (check_ok "ins" (Relation.insert ctx desc (emp 1 "a" "d" 1)));
  Services.commit services ctx;
  (* writes in an aborted transaction persist: temp is unlogged by design *)
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "scratch") in
  ignore (check_ok "ins2" (Relation.insert ctx desc (emp 2 "b" "d" 2)));
  Services.abort services ctx;
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "scratch") in
  Alcotest.(check int) "abort did not undo temp writes" 2
    (count_records ctx desc);
  Services.commit services ctx

let test_readonly_overflow_pages () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"pub" ~schema:emp_schema
         ~storage_method:"readonly" ())
  in
  for i = 1 to 200 do
    ignore
      (check_ok "append"
         (Relation.insert ctx desc
            [| vi i; vs (big_string 90 'p'); vs "d"; vi i |]))
  done;
  Services.commit services ctx;
  (* sealing is a logged catalog change: an abort undoes it *)
  let seal_in txn_end =
    let ctx = Services.begin_txn services in
    let desc = check_ok "find" (Ddl.find_relation ctx "pub") in
    Dmx_smethod.Readonly.seal ctx desc;
    Alcotest.(check bool) "sealed" true (Dmx_smethod.Readonly.is_sealed desc);
    txn_end services ctx;
    let ctx = Services.begin_txn services in
    let desc = check_ok "find" (Ddl.find_relation ctx "pub") in
    Alcotest.(check int) "all published" 200 (count_records ctx desc);
    Alcotest.(check int) "counted" 200
      (check_ok "count" (Relation.record_count ctx desc));
    let sealed = Dmx_smethod.Readonly.is_sealed desc in
    Services.commit services ctx;
    sealed
  in
  Alcotest.(check bool) "an aborted seal is undone" false
    (seal_in Services.abort);
  Alcotest.(check bool) "a committed seal stays" true (seal_in Services.commit)

let test_foreign_unreachable_server () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  (match
     Ddl.create_relation ctx ~name:"f" ~schema:emp_schema
       ~storage_method:"foreign"
       ~attrs:[ ("server", "no_such_server"); ("relation", "r") ] ()
   with
  | Error (Error.Internal _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "unreachable server accepted");
  Services.abort services ctx

let test_foreign_missing_attrs () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  (match
     Ddl.create_relation ctx ~name:"f" ~schema:emp_schema
       ~storage_method:"foreign" ~attrs:[ ("server", "x") ] ()
   with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "missing required attribute accepted");
  Services.abort services ctx

let test_btree_org_composite_key () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let schema =
    Schema.make_exn
      [
        Schema.column ~nullable:false "id" Value.Tint;
        Schema.column "name" Value.Tstring;
        Schema.column ~nullable:false "dept" Value.Tstring;
        Schema.column "salary" Value.Tint;
      ]
  in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema
         ~storage_method:"btree" ~attrs:[ ("key", "dept,id") ] ())
  in
  List.iter
    (fun (i, d) ->
      ignore
        (check_ok "ins" (Relation.insert ctx desc (emp i "x" d (i * 10)))))
    [ (2, "eng"); (1, "ops"); (3, "eng"); (1, "eng"); (2, "ops") ];
  (* prefix scan on the leading key field *)
  let scan =
    check_ok "scan"
      (Relation.scan ctx desc ~lo:(Intf.Incl [| vs "eng" |])
         ~hi:(Intf.Incl [| vs "eng" |]) ())
  in
  let rows = Dmx_core.Scan_help.record_scan_to_list scan |> List.map snd in
  Alcotest.(check (list int)) "eng ids in key order" [ 1; 2; 3 ]
    (List.map (fun r -> Int64.to_int (Option.get (Value.to_int r.(0)))) rows);
  (* null key field refused via NOT NULL requirement *)
  (match
     Ddl.create_relation ctx ~name:"bad" ~schema:emp_schema
       ~storage_method:"btree" ~attrs:[ ("key", "name") ] ()
   with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "nullable key field accepted");
  Services.commit services ctx

(* btree_org's batch entry: keys come back in input order, and a key
   repeated in the batch or already stored refuses the whole batch with
   [Duplicate_key], leaving records and count as they were. *)
let test_btree_org_insert_many () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"btree" ~attrs:[ ("key", "id") ] ())
  in
  let row i = emp i (Fmt.str "n%d" i) "d" i in
  let batch ids = Array.map row ids in
  let ids = Array.init 600 (fun i -> (i * 7919) mod 600) in
  let keys = check_ok "load" (Relation.insert_many ctx desc (batch ids)) in
  Alcotest.(check (array key_testable)) "keys in input order"
    (Array.map (fun i -> Record_key.fields [| vi i |]) ids)
    keys;
  let state () =
    (all_records ctx desc, check_ok "count" (Relation.record_count ctx desc))
  in
  let loaded = state () in
  Alcotest.(check int) "count" 600 (snd loaded);
  let refused what ids =
    (match Relation.insert_many ctx desc (batch ids) with
    | Error (Error.Duplicate_key _) -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e));
    Alcotest.(check bool) (what ^ ": relation unchanged") true
      (state () = loaded)
  in
  refused "duplicate in the batch" [| 700; 650; 701; 650 |];
  refused "duplicate of a stored key" [| 800; 801; 599; 802 |];
  ignore (check_ok "more" (Relation.insert_many ctx desc (batch [| 900; 600 |])));
  Alcotest.(check int) "count after" 602
    (check_ok "count" (Relation.record_count ctx desc));
  Services.commit services ctx

(* A single-row insert is a batch of one: a stored key is refused with
   [Duplicate_key], and neither the records nor the count move. *)
let test_btree_org_insert_duplicate () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"btree" ~attrs:[ ("key", "id") ] ())
  in
  for i = 1 to 300 do
    ignore (check_ok "ins" (Relation.insert ctx desc (emp i "x" "d" i)))
  done;
  let state () =
    (all_records ctx desc, check_ok "count" (Relation.record_count ctx desc))
  in
  let loaded = state () in
  List.iter
    (fun i ->
      (match Relation.insert ctx desc (emp i "other" "e" 0) with
      | Error (Error.Duplicate_key _) -> ()
      | Ok _ -> Alcotest.failf "key %d: accepted" i
      | Error e -> Alcotest.failf "key %d: %s" i (Error.to_string e));
      Alcotest.(check bool) (Fmt.str "key %d: relation unchanged" i) true
        (state () = loaded))
    [ 1; 150; 300 ];
  Alcotest.(check int) "count" 300 (snd loaded);
  Services.commit services ctx

let test_create_bad_attrs () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  (* unknown attribute rejected by the common validation *)
  (match
     Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
       ~storage_method:"heap" ~attrs:[ ("nosuch", "1") ] ()
   with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "unknown attribute accepted");
  (* unknown storage method *)
  (match
     Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
       ~storage_method:"martian" ()
   with
  | Error (Error.Ddl_error _) -> ()
  | _ -> Alcotest.fail "unknown storage method accepted");
  Services.abort services ctx

(* "Given a key, a direct-by-key access returns selected data fields from a
   record in the relation" — ?fields projection across storage methods. *)
let test_fetch_selected_fields () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  List.iter
    (fun (rel, sm, attrs) ->
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:rel ~schema:emp_schema
             ~storage_method:sm ~attrs ())
      in
      let key = check_ok "ins" (Relation.insert ctx desc (emp 7 "bob" "eng" 99)) in
      match
        check_ok "fetch" (Relation.fetch ctx desc key ~fields:[| 1; 3 |] ())
      with
      | Some r ->
        Alcotest.check record_testable (rel ^ " projected")
          [| vs "bob"; vi 99 |] r
      | None -> Alcotest.failf "%s: record missing" rel)
    [
      ("h", "heap", []);
      ("b", "btree", [ ("key", "id") ]);
      ("m", "memory", []);
      ("tmp", "temp", []);
    ];
  Services.commit services ctx

(* Moderate soak: a mixed workload with two indexes, a check constraint and
   an aggregate, across several transactions with savepoints and aborts. *)
let test_soak_mixed_workload () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  ignore
    (check_ok "create"
       (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
          ~storage_method:"heap" ()));
  check_ok "pk"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"pk" ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
  check_ok "dept"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"hash_index"
       ~name:"hd" ~attrs:[ ("fields", "dept"); ("buckets", "8") ] ());
  check_ok "check"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"check"
       ~name:"pos" ~attrs:[ ("predicate", "salary >= 0") ] ());
  check_ok "agg"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"agg"
       ~name:"ag" ~attrs:[ ("group", "dept"); ("sum", "salary") ] ());
  Services.commit services ctx;
  let live = Hashtbl.create 64 in
  for round = 1 to 8 do
    let ctx = Services.begin_txn services in
    let desc = check_ok "find" (Ddl.find_relation ctx "t") in
    let doomed = round mod 3 = 0 in
    let snapshot = Hashtbl.copy live in
    for i = 1 to 250 do
      let id = (round * 1000) + i in
      match
        Relation.insert ctx desc
          (emp id (Fmt.str "u%d" id) (Fmt.str "d%d" (i mod 7)) (i mod 100))
      with
      | Ok key -> if not doomed then Hashtbl.replace live id key else ()
      | Error e -> Alcotest.failf "soak insert: %s" (Dmx_core.Error.to_string e)
    done;
    (* delete a few from earlier rounds *)
    Hashtbl.fold (fun id key acc -> (id, key) :: acc) live []
    |> List.filteri (fun i _ -> i mod 17 = 0)
    |> List.iter (fun (id, key) ->
           match Relation.delete ctx desc key with
           | Ok _ -> if not doomed then Hashtbl.remove live id
           | Error (Dmx_core.Error.Key_not_found _) -> ()
           | Error e -> Alcotest.failf "soak delete: %s" (Dmx_core.Error.to_string e));
    if doomed then begin
      Services.abort services ctx;
      Hashtbl.reset live;
      Hashtbl.iter (fun k v -> Hashtbl.replace live k v) snapshot
    end
    else Services.commit services ctx
  done;
  (* final consistency: relation count = model; aggregate count = model *)
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "t") in
  Alcotest.(check int) "soak count" (Hashtbl.length live)
    (count_records ctx desc);
  let agg_total =
    List.fold_left
      (fun acc g -> acc + g.Dmx_attach.Agg.count)
      0
      (Dmx_attach.Agg.groups ctx desc ~name:"ag")
  in
  Alcotest.(check int) "aggregate agrees" (Hashtbl.length live) agg_total;
  Services.commit services ctx

(* ~1 KB records: three to a 4 KB heap page *)
let wide i = [| vi i; vs (big_string 1000 'w'); vs "d"; vi i |]

let pages_of keys =
  List.filter_map
    (function Record_key.Rid { page; _ } -> Some page | _ -> None)
    (Array.to_list keys)
  |> List.sort_uniq compare

(* Free space is probed lazily, newest page first: a one-record batch into a
   50-page heap pins the newest page twice (probe, fill) and no other data
   page — a small record always fits there — besides the directory's head
   twice (its entries, the record count). *)
let test_heap_lazy_probe () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  let keys = check_ok "load" (Relation.insert_many ctx desc (Array.init 200 wide)) in
  Alcotest.(check bool) "50+ pages" true (List.length (pages_of keys) >= 50);
  let io = Dmx_page.Disk.stats (Dmx_page.Buffer_pool.disk ctx.Ctx.bp) in
  let before = Dmx_page.Io_stats.copy io in
  ignore
    (check_ok "one"
       (Relation.insert_many ctx desc [| [| vi 200; vs "s"; vs "d"; vi 0 |] |]));
  let d = Dmx_page.Io_stats.diff ~after:io ~before in
  let pins = d.Dmx_page.Io_stats.pool_hits + d.Dmx_page.Io_stats.pool_misses in
  if pins > 4 then Alcotest.failf "one-record batch pinned %d pages" pins;
  Services.commit services ctx

(* An in-memory disk that shows every page write to [!on_write] first. *)
let observed_disk on_write =
  let module Disk = Dmx_page.Disk in
  let mem = Disk.in_memory () in
  Disk.custom
    {
      Disk.o_page_count = (fun () -> Disk.page_count mem);
      o_alloc = (fun () -> Disk.alloc mem);
      o_read = Disk.read mem;
      o_write =
        (fun id data ->
          !on_write id data;
          Disk.write mem id data);
      o_sync = ignore;
      o_close = ignore;
      o_durable = false;
    }

(* WAL before page, checked at the store: whenever a page the relation
   already owned is written, every record on it that the open transaction
   placed must have its insert image in the log. The batch fills the relation's
   last page and then allocates several more through an 8-frame pool, so
   that page is evicted while the batch is still placing records. *)
let test_heap_batch_logs_before_write () =
  ignore (Lazy.force registered);
  let on_write = ref (fun _ _ -> ()) in
  let disk = observed_disk on_write in
  let services = Services.setup ~disk ~pool_capacity:8 () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  (* five records: the last page keeps room *)
  let committed = check_ok "seed" (Relation.insert_many ctx desc (Array.init 5 wide)) in
  Services.commit services ctx;
  let old_pages = pages_of committed in
  let ctx = Services.begin_txn services in
  let heap = Dmx_smethod.Heap.id () in
  let logged () =
    ctx.Ctx.txn.Dmx_txn.Txn.chain
    |> List.filter_map (fun (r : Dmx_wal.Log_record.t) ->
           match r.kind with
           | Dmx_wal.Log_record.Ext
               { source = Dmx_wal.Log_record.Smethod s; data; _ }
             when s = heap ->
             let rid d =
               let page = Codec.Dec.varint d in
               Record_key.rid ~page ~slot:(Codec.Dec.varint d)
             in
             let img = Image.decode rid data in
             if img.before = None then Some img.target else None
           | _ -> None)
  in
  let mid_batch_writes = ref 0 in
  on_write :=
    (fun id data ->
      if List.mem id old_pages then begin
        incr mid_batch_writes;
        let logged = logged () in
        Dmx_page.Slotted.iter data (fun slot _ ->
            let key = Record_key.rid ~page:id ~slot in
            let known = List.exists (Record_key.equal key) in
            if not (known (Array.to_list committed) || known logged) then
              Alcotest.failf "page %d written with unlogged record %a" id
                Record_key.pp key)
      end);
  ignore
    (check_ok "batch"
       (Relation.insert_many ctx desc (Array.init 40 (fun i -> wide (100 + i)))));
  on_write := (fun _ _ -> ());
  Alcotest.(check bool) "the filled page left the pool mid-batch" true
    (!mid_batch_writes > 0);
  Services.commit services ctx

(* WAL before page across the B-tree users. Every record carries a unique
   marker, and a 3-frame pool makes ~1.3 KB entries split and evict in the
   middle of an insert. Records inserted earlier are logged already, so at
   each page write only the insert in flight can be ahead of the log: a page
   carrying its marker may be written only once a log record appended since
   the insert began carries it too. [storage_method] holds the records and
   [attach] adds the structure under test; a temp (unlogged) base leaves the
   attachment's own log records as the only ones carrying the marker. *)
let marked_schema =
  Schema.make_exn
    [
      Schema.column ~nullable:false "id" Value.Tint;
      Schema.column ~nullable:false "name" Value.Tstring;
      Schema.column "dept" Value.Tstring;
      Schema.column "salary" Value.Tint;
    ]

let marker i = Fmt.str "<mark%04d>" i
let marked i = [| vi i; vs (marker i ^ big_string 1300 'm'); vs "d"; vi i |]

let logs_before_page_write ~storage_method ?attrs ?(attach = fun _ -> ()) ()
    =
  ignore (Lazy.force registered);
  let on_write = ref (fun _ _ -> ()) in
  let disk = observed_disk on_write in
  let services = Services.setup ~disk ~pool_capacity:3 () in
  let ctx = Services.begin_txn services in
  ignore
    (check_ok "create"
       (Ddl.create_relation ctx ~name:"t" ~schema:marked_schema
          ~storage_method ?attrs ()));
  attach ctx;
  let desc = check_ok "find" (Ddl.find_relation ctx "t") in
  Services.commit services ctx;
  let wal = services.Services.wal in
  let in_flight = ref None in
  let logged i lsn0 =
    let found = ref false in
    Array.iter
      (fun (r : Dmx_wal.Log_record.t) ->
        match r.kind with
        | Dmx_wal.Log_record.Ext { data; _ } when r.lsn > lsn0 ->
          if Astring_contains.contains data (marker i) then found := true
        | _ -> ())
      (Dmx_wal.Wal.read_all wal);
    !found
  in
  on_write :=
    (fun id data ->
      match !in_flight with
      | Some (i, lsn0)
        when Astring_contains.contains (Bytes.to_string data) (marker i)
             && not (logged i lsn0) ->
        Alcotest.failf "page %d written with record #%d before its log record"
          id i
      | Some _ | None -> ());
  let ctx = Services.begin_txn services in
  for i = 0 to 399 do
    in_flight := Some (i, Dmx_wal.Wal.last_lsn wal);
    ignore (check_ok "insert" (Relation.insert ctx desc (marked i)))
  done;
  in_flight := None;
  Services.commit services ctx

let create_attachment ctx ty attrs =
  check_ok ty
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:ty ~name:ty
       ~attrs ())

let test_btree_logs_before_write () =
  logs_before_page_write ~storage_method:"btree" ~attrs:[ ("key", "id") ] ()

let test_btree_index_logs_before_write () =
  logs_before_page_write ~storage_method:"temp"
    ~attach:(fun ctx ->
      create_attachment ctx "btree_index" [ ("fields", "name") ])
    ()

let test_agg_logs_before_write () =
  logs_before_page_write ~storage_method:"temp"
    ~attach:(fun ctx ->
      create_attachment ctx "agg" [ ("group", "name"); ("sum", "salary") ])
    ()

(* The partner side is keyed by the marked field, so each pair's key holds
   the marker. *)
let test_join_index_logs_before_write () =
  logs_before_page_write ~storage_method:"temp"
    ~attach:(fun ctx ->
      let other =
        check_ok "create other"
          (Ddl.create_relation ctx ~name:"o" ~schema:marked_schema
             ~storage_method:"btree" ~attrs:[ ("key", "name") ] ())
      in
      ignore
        (check_ok "seed other"
           (Relation.insert_many ctx other (Array.init 400 marked)));
      create_attachment ctx "join_index"
        [ ("field", "name"); ("other", "o"); ("other_field", "name") ])
    ()

(* The descriptor count follows rollback: undo of an insert it reversed
   takes the record back out of the count. [readonly] has no delete, so it
   runs the inserts only. *)
let test_count_after_rollback () =
  List.iter
    (fun (storage_method, attrs, deletes) ->
      let services = fresh_services () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema ~storage_method
             ~attrs ())
      in
      ignore (check_ok "seed" (Relation.insert ctx desc (emp 1 "a" "d" 1)));
      Services.commit services ctx;
      let count ctx what expect =
        Alcotest.(check int)
          (Fmt.str "%s: %s" storage_method what)
          expect
          (check_ok "count" (Relation.record_count ctx desc));
        Alcotest.(check int)
          (Fmt.str "%s: %s (scan)" storage_method what)
          expect (count_records ctx desc)
      in
      let insert_two ctx =
        ignore (check_ok "ins" (Relation.insert ctx desc (emp 2 "b" "d" 2)));
        ignore (check_ok "ins" (Relation.insert ctx desc (emp 3 "c" "d" 3)))
      in
      let ctx = Services.begin_txn services in
      insert_two ctx;
      Services.abort services ctx;
      let ctx = Services.begin_txn services in
      count ctx "after abort" 1;
      Services.savepoint ctx "sp";
      insert_two ctx;
      count ctx "before rollback_to" 3;
      Services.rollback_to ctx "sp";
      count ctx "after rollback_to" 1;
      if deletes then begin
        let key =
          fst
            (List.hd
               (Scan_help.record_scan_to_list
                  (check_ok "scan" (Relation.scan ctx desc ()))))
        in
        Services.savepoint ctx "sp2";
        ignore (check_ok "del" (Relation.delete ctx desc key));
        count ctx "after delete" 0;
        Services.rollback_to ctx "sp2";
        count ctx "after delete rolled back" 1
      end;
      Services.commit services ctx)
    [
      ("heap", [], true);
      ("btree", [ ("key", "id") ], true);
      ("memory", [], true);
      ("readonly", [], false);
    ]

(* A single-row insert allocates the same whatever the table's size: it
   reads the directory's tail and probes the newest page, never the whole
   page list. The median minor words of 21 one-row transactions (a page
   boundary can fall among them), at 10k and at 200k rows. *)
let test_heap_insert_cost_flat () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  Services.commit services ctx;
  let rows = ref 0 in
  let load upto =
    while !rows < upto do
      let ctx = Services.begin_txn services in
      let n = min 5000 (upto - !rows) in
      ignore
        (check_ok "load"
           (Relation.insert_many ctx desc
              (Array.init n (fun i -> emp (!rows + i) "n" "d" i))));
      Services.commit services ctx;
      rows := !rows + n
    done
  in
  let insert_words () =
    let words =
      List.init 21 (fun i ->
          let ctx = Services.begin_txn services in
          let record = emp (-i) "n" "d" i in
          let w0 = Gc.minor_words () in
          ignore (check_ok "one" (Relation.insert ctx desc record));
          let w = Gc.minor_words () -. w0 in
          Services.commit services ctx;
          w)
      |> List.sort compare
    in
    List.nth words 10
  in
  load 10_000;
  let small = insert_words () in
  load 200_000;
  let large = insert_words () in
  if Float.abs (large -. small) > 32. then
    Alcotest.failf "a single-row insert allocates %.0f words at 10k rows, %.0f at 200k"
      small large

(* A main-memory store belongs to its database: two databases in one
   process each create a relation [t] (the same relation id in each), and
   each sees only its own rows, for the logged and the unlogged method. *)
let test_memory_per_database () =
  List.iter
    (fun storage_method ->
      let a = fresh_services () and b = fresh_services () in
      let create services rows =
        let ctx = Services.begin_txn services in
        let desc =
          check_ok "create"
            (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
               ~storage_method ())
        in
        List.iter
          (fun i -> ignore (check_ok "insert" (Relation.insert ctx desc (emp i "n" "d" i))))
          rows;
        Services.commit services ctx;
        desc
      in
      let count services desc =
        let ctx = Services.begin_txn services in
        let n = count_records ctx desc in
        Services.commit services ctx;
        n
      in
      let da = create a [ 1; 2; 3 ] in
      let db = create b [ 4 ] in
      Alcotest.(check int)
        (storage_method ^ ": one relation id in both")
        da.Dmx_catalog.Descriptor.rel_id db.Dmx_catalog.Descriptor.rel_id;
      Alcotest.(check int) (storage_method ^ ": A's rows") 3 (count a da);
      Alcotest.(check int) (storage_method ^ ": B's rows") 1 (count b db);
      let ctx = Services.begin_txn b in
      ignore (check_ok "drop" (Ddl.drop_relation ctx ~name:"t"));
      Services.commit b ctx;
      Alcotest.(check int)
        (storage_method ^ ": A's rows after B drops t")
        3 (count a da);
      Services.close a;
      Services.close b)
    [ "memory"; "temp" ]

(* A reopened database starts with empty main-memory stores: their
   contents are volatile, even within one process. *)
let test_memory_empty_after_reopen () =
  with_temp_dir ~prefix:"dmx_memory_reopen" (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
             ~storage_method:"memory" ())
      in
      ignore (check_ok "insert" (Relation.insert ctx desc (emp 1 "n" "d" 1)));
      Services.commit services ctx;
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "t") in
      Alcotest.(check int) "no rows after reopen" 0 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

let suite =
  [
    Alcotest.test_case "heap grows across pages" `Quick test_heap_grows_pages;
    Alcotest.test_case "heap insert probes free space lazily" `Quick
      test_heap_lazy_probe;
    Alcotest.test_case "heap batch logs before its pages are written" `Quick
      test_heap_batch_logs_before_write;
    Alcotest.test_case "btree logs before its pages are written" `Quick
      test_btree_logs_before_write;
    Alcotest.test_case "btree_index logs before its pages are written" `Quick
      test_btree_index_logs_before_write;
    Alcotest.test_case "agg logs before its pages are written" `Quick
      test_agg_logs_before_write;
    Alcotest.test_case "join_index logs before its pages are written" `Quick
      test_join_index_logs_before_write;
    Alcotest.test_case "record count follows rollback" `Quick
      test_count_after_rollback;
    Alcotest.test_case "heap insert cost does not grow with the table" `Quick
      test_heap_insert_cost_flat;
    Alcotest.test_case "fetch selected fields" `Quick
      test_fetch_selected_fields;
    Alcotest.test_case "soak: mixed workload" `Quick test_soak_mixed_workload;
    Alcotest.test_case "heap update relocation" `Quick
      test_heap_update_relocates;
    Alcotest.test_case "abort reinstates a delete another txn grew over"
      `Quick test_heap_abort_reinstates_delete;
    Alcotest.test_case "abort regrows a shrink another txn grew over" `Quick
      test_heap_abort_regrows_shrink;
    Alcotest.test_case "rollback to savepoint releases held bytes" `Quick
      test_heap_rollback_releases_held_bytes;
    Alcotest.test_case "heap under tiny pool (file-backed)" `Quick
      test_heap_under_tiny_pool_file_backed;
    Alcotest.test_case "temp is unlogged" `Quick test_temp_unlogged_semantics;
    Alcotest.test_case "memory stores are per database" `Quick
      test_memory_per_database;
    Alcotest.test_case "memory store is empty after reopen" `Quick
      test_memory_empty_after_reopen;
    Alcotest.test_case "readonly overflow pages + seal" `Quick
      test_readonly_overflow_pages;
    Alcotest.test_case "foreign: unreachable server" `Quick
      test_foreign_unreachable_server;
    Alcotest.test_case "foreign: missing attributes" `Quick
      test_foreign_missing_attrs;
    Alcotest.test_case "btree-organised composite key" `Quick
      test_btree_org_composite_key;
    Alcotest.test_case "btree-organised insert_many" `Quick
      test_btree_org_insert_many;
    Alcotest.test_case "DDL attribute validation" `Quick test_create_bad_attrs;
    Alcotest.test_case "btree-organised single-row duplicate" `Quick
      test_btree_org_insert_duplicate;
  ]
