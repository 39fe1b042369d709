(* The vectorized read path. Every native storage method (heap, btree,
   memory, temp, readonly) implements scanning once, as a run producer; its
   record cursor is [Scan_help.records_of_runs] over those runs, and
   record-only methods (foreign) ride the default run-chunking slot
   instead. Both paths must
   return what the interpreter says qualifies, and the record cursor must
   stay record-granular under the transaction's own modifications. Plus the
   shapes the run protocol promises: torn runs at relation end, run-granular
   positions under mid-scan modification, and exactly one pin per heap
   page. *)
open Dmx_value
open Dmx_core
open Test_util
module Ddl = Dmx_ddl.Ddl
module Relation = Dmx_core.Relation

let with_run_length n f =
  Scan_help.set_run_length_for_testing (Some n);
  Fun.protect ~finally:(fun () -> Scan_help.set_run_length_for_testing None) f

let row i =
  [| vi i; vs (Fmt.str "name%d" i); vs (if i mod 2 = 0 then "even" else "odd");
     vi (i * 10) |]

let make_rel ctx ~storage_method ?(attrs = []) ?(n = 25) () =
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:("t_" ^ storage_method) ~schema:emp_schema
         ~storage_method ~attrs ())
  in
  for i = 1 to n do
    ignore (check_ok "ins" (Relation.insert ctx desc (row i)))
  done;
  desc

let records_of_record_scan ctx desc ?filter () =
  check_ok "scan" (Relation.scan ctx desc ?filter ())
  |> Scan_help.record_scan_to_list |> List.map snd

let records_of_batch_scan ctx desc ?filter () =
  check_ok "scan_batch" (Relation.scan_batch ctx desc ?filter ())
  |> Scan_help.run_scan_to_list |> List.map snd

let check_parity ~what a b =
  Alcotest.(check (list record_testable)) what a b

(* scan and filtered scan, record and batch paths: each returns the model —
   the inserted rows, in insertion order (= key order for every method
   here), filtered by the interpreter acting as test oracle. Native
   producers and the default chunking loop alike, at the default and at
   short run lengths. One filter has the span matcher's shape, the other
   does not, so the heap page scan's test on the decoded record is checked
   too. *)
let test_batch_record_parity () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let parse src =
    match Dmx_expr.Parse.parse emp_schema src with
    | Ok e -> e
    | Error m -> Alcotest.failf "parse: %s" m
  in
  let span_filter = parse "salary > 100 AND dept = 'even'" in
  let other_filter = parse "salary + 0 > 100 AND name LIKE 'name1%'" in
  ignore (Dmx_smethod.Remote_server.create ~name:"readpath");
  let model ?filter () =
    List.init 25 (fun i -> row (i + 1))
    |> List.filter (fun r ->
           match filter with
           | None -> true
           | Some f -> Dmx_expr.Eval.test r f)
  in
  List.iter
    (fun (sm, attrs) ->
      let desc = make_rel ctx ~storage_method:sm ~attrs () in
      let check ~runs =
        List.iter
          (fun (what, filter) ->
            let what = Fmt.str "%s %s, %s" sm what runs in
            check_parity ~what:(what ^ ", record path") (model ?filter ())
              (records_of_record_scan ctx desc ?filter ());
            check_parity ~what:(what ^ ", batch path") (model ?filter ())
              (records_of_batch_scan ctx desc ?filter ()))
          [ ("unfiltered", None); ("span-shaped filter", Some span_filter);
            ("other filter", Some other_filter) ]
      in
      check ~runs:"default runs";
      (* short runs cross run boundaries mid-relation *)
      with_run_length 3 (fun () -> check ~runs:"short runs"))
    [
      ("heap", []);
      ("btree", [ ("key", "id") ]);
      ("memory", []);
      ("temp", []);
      ("readonly", []);
      (* no native producer: default run-chunking slot *)
      ("foreign", [ ("server", "readpath"); ("relation", "t") ]);
    ];
  Services.commit services ctx

(* the last run is torn, never padded: 10 records at run length 4 arrive
   as runs of 4, 4, 2 — and no run is ever empty *)
let test_torn_final_run () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  ignore (Dmx_smethod.Remote_server.create ~name:"torn");
  List.iter
    (fun (sm, attrs) ->
      let desc = make_rel ctx ~storage_method:sm ~attrs ~n:10 () in
      with_run_length 4 (fun () ->
          let scan = check_ok "scan_batch" (Relation.scan_batch ctx desc ()) in
          let rec drain acc =
            match scan.Intf.rn_next () with
            | None ->
              scan.Intf.rn_close ();
              List.rev acc
            | Some run ->
              Alcotest.(check bool)
                (sm ^ ": runs are never empty")
                true
                (Array.length run > 0);
              drain (Array.length run :: acc)
          in
          let sizes = drain [] in
          Alcotest.(check int)
            (sm ^ ": all records delivered")
            10
            (List.fold_left ( + ) 0 sizes);
          List.iter
            (fun s ->
              Alcotest.(check bool)
                (sm ^ ": no run exceeds the run length")
                true (s <= 4))
            sizes))
    [ ("memory", []); ("foreign", [ ("server", "torn"); ("relation", "t") ]) ];
  Services.commit services ctx

(* mid-scan modification: the position between runs is ON the last
   delivered record, so not-yet-delivered records can still be deleted
   (and vanish) or appended (and appear) *)
let test_midscan_modification () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc = make_rel ctx ~storage_method:"memory" ~n:10 () in
  with_run_length 3 (fun () ->
      let scan = check_ok "scan_batch" (Relation.scan_batch ctx desc ()) in
      let first =
        match scan.Intf.rn_next () with
        | Some run -> Array.to_list run |> List.map (fun (_, r) -> r.(0))
        | None -> Alcotest.fail "first run missing"
      in
      Alcotest.(check (list value_testable)) "first run" [ vi 1; vi 2; vi 3 ] first;
      (* delete a record beyond the position; append a fresh one *)
      let keys =
        check_ok "keyed scan" (Relation.scan ctx desc ())
        |> Scan_help.record_scan_to_list
      in
      let key5 =
        fst (List.find (fun (_, r) -> Value.equal r.(0) (vi 5)) keys)
      in
      ignore (check_ok "del" (Relation.delete ctx desc key5));
      ignore
        (check_ok "ins"
           (Relation.insert ctx desc [| vi 11; vs "late"; vs "odd"; vi 110 |]));
      let rest =
        let rec drain acc =
          match scan.Intf.rn_next () with
          | None ->
            scan.Intf.rn_close ();
            List.rev acc
          | Some run ->
            drain
              (List.rev_append
                 (Array.to_list run |> List.map (fun (_, r) -> r.(0)))
                 acc)
        in
        drain []
      in
      Alcotest.(check (list value_testable))
        "deleted record skipped, appended record seen"
        [ vi 4; vi 6; vi 7; vi 8; vi 9; vi 10; vi 11 ]
        rest);
  Services.commit services ctx

(* The record cursor buffers a run, yet stays record-granular: on record 1
   of a six-record run, delete record 3 and insert record 7 — the drain
   skips 3 and reaches 7, as a cursor stepping the relation itself would. *)
let test_record_scan_visibility () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  List.iter
    (fun (sm, attrs) ->
      let desc = make_rel ctx ~storage_method:sm ~attrs ~n:6 () in
      let ids = List.map (fun (_, r) -> r.(0)) in
      let scan = check_ok "scan" (Relation.scan ctx desc ()) in
      Alcotest.(check (list value_testable))
        (sm ^ ": first") [ vi 1 ]
        (ids (Option.to_list (scan.Intf.rs_next ())));
      let key3 =
        check_ok "keyed scan" (Relation.scan ctx desc ())
        |> Scan_help.record_scan_to_list
        |> List.find (fun (_, r) -> Value.equal r.(0) (vi 3))
        |> fst
      in
      ignore (check_ok "del" (Relation.delete ctx desc key3));
      ignore (check_ok "ins" (Relation.insert ctx desc (row 7)));
      Alcotest.(check (list value_testable))
        (sm ^ ": delete and insert ahead of the position")
        [ vi 2; vi 4; vi 5; vi 6; vi 7 ]
        (ids (Scan_help.record_scan_to_list scan)))
    [ ("heap", []); ("btree", [ ("key", "id") ]); ("memory", []) ];
  Services.commit services ctx

(* a full heap scan, batch or record, pins each page it reads exactly once:
   every data page and every directory page listing them — the
   deterministic counter E6 gates on *)
let test_heap_pins_per_page () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"big" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  let keys =
    List.init 200 (fun i ->
        check_ok "ins"
          (Relation.insert ctx desc
             [| vi i; vs (String.make 100 'x'); vs "d"; vi i |]))
  in
  let pages =
    List.filter_map
      (function Record_key.Rid { page; _ } -> Some page | _ -> None)
      keys
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "spans several pages" true (List.length pages > 2);
  let directory =
    Dmx_smethod.Heap.directory ctx (Dmx_smethod.Heap.head_of desc)
  in
  Alcotest.(check int) "one directory page" 1 (List.length directory);
  let io = Dmx_page.Disk.stats (Dmx_page.Buffer_pool.disk ctx.Ctx.bp) in
  List.iter
    (fun (what, scan) ->
      let before = Dmx_page.Io_stats.copy io in
      Alcotest.(check int) (what ^ ": all records scanned") 200
        (List.length (scan ctx desc ()));
      let d = Dmx_page.Io_stats.diff ~after:io ~before in
      Alcotest.(check int)
        (what ^ ": pins = page count")
        (List.length pages + List.length directory)
        (d.Dmx_page.Io_stats.pool_hits + d.Dmx_page.Io_stats.pool_misses))
    [ ("batch scan", records_of_batch_scan ?filter:None);
      ("record scan", records_of_record_scan ?filter:None) ];
  Services.commit services ctx

(* A record the span matcher rejects costs no allocation: a never-matching
   filtered heap scan over a cached table allocates under one minor word
   per record, and its minor words grow with the pages it pins, not with
   the records on them: a page holds about 110 of these records, so one
   word per record would add 110 words per page, above the bound of 100
   that the page's pin and loop set-up stay under. *)
let test_rejected_record_allocates_nothing () =
  let services = fresh_services ~pool_capacity:1024 () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"quiet" ~schema:emp_schema
         ~storage_method:"heap" ())
  in
  let load lo hi =
    ignore
      (check_ok "load"
         (Relation.insert_many ctx desc
            (Array.init (hi - lo) (fun k ->
                 let i = lo + k in
                 [| vi i; vs (Fmt.str "name%d" i); vs "d"; vi i |]))))
  in
  let never = Dmx_expr.Parse.parse_exn emp_schema "salary < 0 AND dept = 'x'" in
  let io = Dmx_page.Disk.stats (Dmx_page.Buffer_pool.disk ctx.Ctx.bp) in
  (* minor words and pins of one scan, after a scan that warms the pool *)
  let scan () =
    let once () =
      let scan = check_ok "scan_batch" (Relation.scan_batch ctx desc ~filter:never ()) in
      let rec drain n =
        match scan.Intf.rn_next () with
        | None -> scan.rn_close (); n
        | Some run -> drain (n + Array.length run)
      in
      drain 0
    in
    ignore (once ());
    let before = Dmx_page.Io_stats.copy io in
    let w0 = Gc.minor_words () in
    let hits = once () in
    let words = Gc.minor_words () -. w0 in
    let d = Dmx_page.Io_stats.diff ~after:io ~before in
    Alcotest.(check int) "nothing matches" 0 hits;
    Alcotest.(check int) "the pool holds the table" 0 d.Dmx_page.Io_stats.pool_misses;
    (words, d.Dmx_page.Io_stats.pool_hits)
  in
  load 0 10_000;
  let w10, p10 = scan () in
  load 10_000 40_000;
  let w40, p40 = scan () in
  Services.commit services ctx;
  let per_record = w40 /. 40_000. in
  Alcotest.(check bool)
    (Fmt.str "%.3f minor words per rejected record (bound 1)" per_record)
    true (per_record < 1.);
  let per_page = (w40 -. w10) /. float_of_int (p40 - p10) in
  Alcotest.(check bool)
    (Fmt.str "%.0f -> %.0f words over %d -> %d pages: %.1f per added page \
              (bound 100)" w10 w40 p10 p40 per_page)
    true (per_page < 100.)

(* run length: the test override wins, and the default is 256 *)
let test_run_length_override () =
  Alcotest.(check int) "default" 256 (Scan_help.run_length ());
  with_run_length 7 (fun () ->
      Alcotest.(check int) "override" 7 (Scan_help.run_length ()));
  Alcotest.(check int) "restored" 256 (Scan_help.run_length ())

(* join through the executor rides the batch path; results must match a
   hand-computed nested loop over record scans *)
let test_join_parity () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let emp_desc = make_rel ctx ~storage_method:"heap" ~n:12 () in
  let dept_schema =
    Schema.make_exn
      [
        Schema.column ~nullable:false "dname" Value.Tstring;
        Schema.column "floor" Value.Tint;
      ]
  in
  let dept_desc =
    check_ok "create dept"
      (Ddl.create_relation ctx ~name:"dept" ~schema:dept_schema
         ~storage_method:"btree" ~attrs:[ ("key", "dname") ] ())
  in
  List.iter
    (fun (d, f) ->
      ignore (check_ok "ins dept" (Relation.insert ctx dept_desc [| vs d; vi f |])))
    [ ("even", 2); ("odd", 1) ];
  let expected =
    let emps = records_of_record_scan ctx emp_desc () in
    let depts = records_of_record_scan ctx dept_desc () in
    List.concat_map
      (fun e ->
        List.filter_map
          (fun d ->
            if Value.equal e.(2) d.(0) && Value.compare e.(3) (vi 50) > 0 then
              Some (Array.append e d)
            else None)
          depts)
      emps
  in
  let q =
    Dmx_query.Query.join ~where:"salary > 50" "t_heap" ~on:("dept", "dept", "dname")
  in
  let plan =
    check_ok "translate" (Dmx_query.Planner.translate ctx q)
  in
  let rows = check_ok "run" (Dmx_query.Executor.run ctx plan ()) in
  let sort = List.sort (fun a b -> Value.compare a.(0) b.(0)) in
  Alcotest.(check (list record_testable)) "join parity" (sort expected) (sort rows);
  Services.commit services ctx

let suite =
  [
    Alcotest.test_case "batch/record parity (all methods)" `Quick
      test_batch_record_parity;
    Alcotest.test_case "torn final run" `Quick test_torn_final_run;
    Alcotest.test_case "mid-scan modification" `Quick test_midscan_modification;
    Alcotest.test_case "record cursor sees modifications ahead" `Quick
      test_record_scan_visibility;
    Alcotest.test_case "heap pins = page count" `Quick test_heap_pins_per_page;
    Alcotest.test_case "a rejected record allocates nothing" `Quick
      test_rejected_record_allocates_nothing;
    Alcotest.test_case "run-length override" `Quick test_run_length_override;
    Alcotest.test_case "join parity" `Quick test_join_parity;
  ]
