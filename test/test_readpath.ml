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
  let servers = Dmx_smethod.Remote_server.directory () in
  ignore (Dmx_smethod.Remote_server.create servers ~name:"readpath");
  let services = fresh_services ~servers () in
  let ctx = Services.begin_txn services in
  let parse src =
    match Dmx_expr.Parse.parse emp_schema src with
    | Ok e -> e
    | Error m -> Alcotest.failf "parse: %s" m
  in
  let span_filter = parse "salary > 100 AND dept = 'even'" in
  let other_filter = parse "salary + 0 > 100 AND name LIKE 'name1%'" in
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
  let servers = Dmx_smethod.Remote_server.directory () in
  ignore (Dmx_smethod.Remote_server.create servers ~name:"torn");
  let services = fresh_services ~servers () in
  let ctx = Services.begin_txn services in
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

(* ---- scans of relations larger than the pool ---- *)

(* Rows of about 200 bytes: a 4 KB page holds under 20 of them, so a few
   hundred rows fill more pages than a small pool holds. *)
let wide_row i =
  [| vi i; vs (String.make (150 + (i * 37 mod 100)) (Char.chr (97 + (i mod 26))));
     vs (Fmt.str "d%d" (i mod 5)); vi (i * 7 mod 1000) |]

let wide_rel ctx name rows =
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name ~schema:emp_schema ~storage_method:"heap" ())
  in
  ignore
    (check_ok "load" (Relation.insert_many ctx desc (Array.init rows wide_row)));
  desc

let heap_pages ctx desc =
  Array.length (Dmx_smethod.Heap.data_pages ctx (Dmx_smethod.Heap.head_of desc))

(* A scan of a relation larger than the pool caches nothing: the pages of a
   small relation read before it stay resident, and no frame is evicted.
   Its uncached pages still count one miss and one page read each. *)
let test_large_scan_keeps_cache () =
  let services = fresh_services ~pool_capacity:8 () in
  let ctx = Services.begin_txn services in
  let small = wide_rel ctx "small" 10 in
  let large = wide_rel ctx "large" 400 in
  Services.commit services ctx;
  let ctx = Services.begin_txn services in
  let bp = ctx.Ctx.bp in
  let pages = heap_pages ctx large in
  Alcotest.(check bool)
    (Fmt.str "%d pages, more than the pool's %d" pages (Dmx_page.Buffer_pool.capacity bp))
    true
    (pages > Dmx_page.Buffer_pool.capacity bp);
  Alcotest.(check int) "small scan" 10
    (List.length (records_of_batch_scan ctx small ()));
  let cached = Dmx_page.Buffer_pool.cached_page_ids bp in
  let small_pages =
    let head = Dmx_smethod.Heap.head_of small in
    head :: Array.to_list (Dmx_smethod.Heap.data_pages ctx head)
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Fmt.str "small page %d cached" p) true
        (List.mem p cached))
    small_pages;
  let evictions = Dmx_obs.Metrics.counter "bp.evictions" in
  let was = Dmx_obs.Metrics.enabled () in
  Dmx_obs.Metrics.set_enabled true;
  let io = Dmx_page.Disk.stats (Dmx_page.Buffer_pool.disk bp) in
  let before = Dmx_page.Io_stats.copy io in
  let e0 = Dmx_obs.Metrics.value evictions in
  let rows =
    Fun.protect
      ~finally:(fun () -> Dmx_obs.Metrics.set_enabled was)
      (fun () -> List.length (records_of_batch_scan ctx large ()))
  in
  let d = Dmx_page.Io_stats.diff ~after:io ~before in
  Alcotest.(check int) "large scan" 400 rows;
  Alcotest.(check int) "no eviction" 0 (Dmx_obs.Metrics.value evictions - e0);
  List.iter
    (fun p ->
      Alcotest.(check bool) (Fmt.str "small page %d still cached" p) true
        (List.mem p (Dmx_page.Buffer_pool.cached_page_ids bp)))
    small_pages;
  Alcotest.(check int) "a page read per miss" d.Dmx_page.Io_stats.pool_misses
    d.Dmx_page.Io_stats.page_reads;
  Alcotest.(check bool) "the uncached pages were read" true
    (d.Dmx_page.Io_stats.pool_misses > 0);
  Services.commit services ctx

(* What one run of a script returns: every record a scan delivers, in
   order, replays after a rollback included. The relation is loaded and
   committed, then one transaction updates and deletes rows without
   committing, and scans. With [savepoint = Some (k, m, touch)] the scan
   delivers [k] records, a savepoint is taken, [m] more are delivered,
   [touch] rows are updated, and the transaction rolls back to the
   savepoint, which puts the scan back after its [k]th record. *)
type script = {
  rows : int;
  changes : [ `Update of int * int | `Grow of int | `Delete of int ] list;
  filter : int;  (* 0 none, 1 span-matched, 2 interpreter fallback *)
  savepoint : (int * int * int) option;
}

let run_script ~pool_capacity sc =
  let services = fresh_services ~pool_capacity () in
  let ctx = Services.begin_txn services in
  let desc = wide_rel ctx "wide" sc.rows in
  Services.commit services ctx;
  let ctx = Services.begin_txn services in
  let keys =
    check_ok "scan" (Relation.scan ctx desc ())
    |> Scan_help.record_scan_to_list |> List.map fst |> Array.of_list
  in
  let live = Array.map Option.some keys in
  let pick i = live.(i mod Array.length live) in
  let change = function
    | `Update (i, salary) -> (
      match pick i with
      | Some k ->
        let r = Array.copy (wide_row i) in
        r.(3) <- vi salary;
        live.(i mod Array.length live) <-
          Some (check_ok "update" (Relation.update ctx desc k r))
      | None -> ())
    | `Grow i -> (
      match pick i with
      | Some k ->
        let r = Array.copy (wide_row i) in
        r.(1) <- vs (String.make 600 'g');
        live.(i mod Array.length live) <-
          Some (check_ok "grow" (Relation.update ctx desc k r))
      | None -> ())
    | `Delete i -> (
      match pick i with
      | Some k ->
        ignore (check_ok "delete" (Relation.delete ctx desc k));
        live.(i mod Array.length live) <- None
      | None -> ())
  in
  List.iter change sc.changes;
  let pages = heap_pages ctx desc in
  let filter =
    match sc.filter with
    | 0 -> None
    | 1 -> Some (Dmx_expr.Parse.parse_exn emp_schema "salary > 300 AND dept = 'd2'")
    | _ -> Some (Dmx_expr.Parse.parse_exn emp_schema "salary < 300 OR dept = 'd2'")
  in
  let scan = check_ok "scan" (Relation.scan ctx desc ?filter ()) in
  let out = ref [] in
  let rec take n =
    if n > 0 then
      match scan.Intf.rs_next () with
      | Some kr ->
        out := kr :: !out;
        take (n - 1)
      | None -> ()
  in
  (match sc.savepoint with
  | None -> ()
  | Some (k, m, touch) ->
    take k;
    Services.savepoint ctx "mid";
    take m;
    for i = 1 to touch do
      change (`Update (i * 31, 999))
    done;
    Services.rollback_to ctx "mid");
  take max_int;
  scan.Intf.rs_close ();
  Services.commit services ctx;
  (pages, List.rev !out)

let gen_script =
  QCheck.Gen.(
    let change =
      frequency
        [
          (4, map2 (fun i s -> `Update (i, s)) nat (int_range 0 999));
          (1, map (fun i -> `Grow i) nat);
          (2, map (fun i -> `Delete i) nat);
        ]
    in
    map4
      (fun rows changes filter savepoint -> { rows; changes; filter; savepoint })
      (int_range 200 500) (list_size (int_range 0 30) change) (int_range 0 2)
      (opt (triple (int_range 0 200) (int_range 0 200) (int_range 0 5))))

let print_script sc =
  Fmt.str "%d rows, %d changes, filter %d, savepoint %s" sc.rows
    (List.length sc.changes) sc.filter
    (match sc.savepoint with
    | None -> "none"
    | Some (k, m, t) -> Fmt.str "(%d, %d, %d)" k m t)

(* Differential: a scan of a relation larger than the pool returns what the
   pinned path returns for the same heap, the reference being the same
   script over a pool larger than the relation. Uncommitted changes leave
   dirty pages resident, newer than the store; the filters take the span
   matcher, the interpreter fallback and no filter; a savepoint taken and
   restored mid-scan rereads pages. The sanitizer is on, so the scan's
   buffer is poisoned after each page. *)
let prop_large_scan_matches_pinned =
  QCheck.Test.make ~name:"a scan larger than the pool matches the pinned path"
    ~count:30
    (QCheck.make ~print:print_script gen_script)
    (fun sc ->
      Dmx_core.Invariant.set_enabled_for_testing (Some true);
      Fun.protect
        ~finally:(fun () -> Dmx_core.Invariant.set_enabled_for_testing None)
        (fun () ->
          let small = 6 in
          let pages, got = run_script ~pool_capacity:small sc in
          let _, want = run_script ~pool_capacity:4096 sc in
          if pages <= small then
            QCheck.Test.fail_reportf "%d pages fit the pool of %d" pages small;
          let same (k1, r1) (k2, r2) =
            Record_key.equal k1 k2 && Record.equal r1 r2
          in
          if List.length got <> List.length want || not (List.for_all2 same got want)
          then
            QCheck.Test.fail_reportf "%d records over %d pages, reference %d"
              (List.length got) pages (List.length want);
          true))

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
    Alcotest.test_case "a scan larger than the pool keeps the cache" `Quick
      test_large_scan_keeps_cache;
    QCheck_alcotest.to_alcotest prop_large_scan_matches_pinned;
  ]
