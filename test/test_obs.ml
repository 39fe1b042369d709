(* dmx-obs: metrics registry and dispatch tracing. *)
open Test_util
module Metrics = Dmx_obs.Metrics
module Emit = Dmx_obs.Emit
module Obs_json = Dmx_obs.Obs_json
module Db = Dmx_db.Db
module Query = Dmx_query.Query
module Plan_cache = Dmx_query.Plan_cache
module Lock_table = Dmx_lock.Lock_table

let contains = Astring_contains.contains

(* Every test restores the global obs state it touched. *)
let with_obs f =
  Fun.protect
    ~finally:(fun () ->
      Emit.disarm `Trace;
      Emit.use_default_sink ();
      Emit.reset_for_testing ();
      Metrics.set_enabled false)
    f

let find_sub s pat =
  let n = String.length s and m = String.length pat in
  let rec loop i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else loop (i + 1)
  in
  loop 0

(* Crude JSON-line field extraction, enough for the fixed span schema. *)
let json_int line key =
  match find_sub line (Fmt.str "%S:" key) with
  | None -> Alcotest.failf "no field %S in %s" key line
  | Some i ->
    let start = i + String.length key + 3 in
    let j = ref start in
    while
      !j < String.length line
      && (match line.[!j] with '0' .. '9' | '-' -> true | _ -> false)
    do
      incr j
    done;
    int_of_string (String.sub line start (!j - start))

(* ---- metrics registry ---- *)

let test_counter_gating () =
  with_obs (fun () ->
      let c = Metrics.counter "test.gate" in
      let v0 = Metrics.value c in
      Metrics.set_enabled false;
      Metrics.incr c;
      Metrics.add c 10;
      Alcotest.(check int) "disabled: no movement" v0 (Metrics.value c);
      Metrics.set_enabled true;
      Metrics.incr c;
      Metrics.add c 10;
      Alcotest.(check int) "enabled: counts" (v0 + 11) (Metrics.value c);
      Alcotest.(check bool)
        "snapshot carries it" true
        (List.mem_assoc "test.gate" (Metrics.snapshot ())))

let test_histogram_boundaries () =
  with_obs (fun () ->
      Metrics.set_enabled true;
      let h = Metrics.histogram ~buckets:[| 10.; 20.; 30. |] "test.bounds_us" in
      let base = Metrics.histogram_counts h in
      (* "le" semantics: a value equal to the bound lands in that bucket. *)
      List.iter (Metrics.observe h) [ 5.; 10.; 10.1; 20.; 30.; 31. ];
      let counts = Metrics.histogram_counts h in
      let d i = counts.(i) - base.(i) in
      Alcotest.(check (list int)) "bucket deltas" [ 2; 2; 1; 1 ]
        [ d 0; d 1; d 2; d 3 ];
      Alcotest.(check int) "total" (Array.fold_left ( + ) 0 base + 6)
        (Metrics.histogram_count h))

let test_disabled_mode_no_alloc () =
  with_obs (fun () ->
      Metrics.set_enabled false;
      let c = Metrics.counter "test.noalloc" in
      let h = Metrics.histogram "test.noalloc_us" in
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Metrics.incr c;
        Metrics.observe h 5.
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Fmt.str "disabled hot path allocates nothing (%.0f words)" words)
        true (words < 256.))

let test_json_exposition () =
  with_obs (fun () ->
      Metrics.set_enabled true;
      Metrics.incr (Metrics.counter "test.json");
      let j = Metrics.to_json () in
      Alcotest.(check bool) "counter present" true (contains j "\"test.json\"");
      let s =
        Obs_json.to_string
          (Obs_json.Obj
             [ ("a", Obs_json.Str "x\"y\n"); ("b", Obs_json.Float infinity) ])
      in
      Alcotest.(check string) "escaping and non-finite floats"
        "{\"a\":\"x\\\"y\\n\",\"b\":null}" s)

(* ---- span tracing through the dispatch layer ---- *)

let test_span_nesting_and_veto () =
  ignore (fresh_services ());
  let db = Db.open_database () in
  with_obs (fun () ->
      let lines = ref [] in
      Emit.set_line_sink (fun l -> lines := l :: !lines);
      Emit.arm `Trace;
      let r =
        Db.with_txn db (fun ctx ->
            ignore
              (check_ok "create"
                 (Db.create_relation db ctx ~name:"emp_obs" ~schema:emp_schema
                    ()));
            check_ok "constraint"
              (Db.create_attachment db ctx ~relation:"emp_obs"
                 ~attachment_type:"check" ~name:"paid"
                 ~attrs:[ ("predicate", "salary > 0") ] ());
            ignore
              (check_ok "insert ok"
                 (Db.insert db ctx ~relation:"emp_obs" (emp 1 "ada" "eng" 120)));
            (match Db.insert db ctx ~relation:"emp_obs" (emp 2 "bob" "eng" (-5)) with
            | Ok _ -> Alcotest.fail "vetoed insert succeeded"
            | Error (Dmx_core.Error.Veto _) -> ()
            | Error e ->
              Alcotest.failf "expected veto, got %s"
                (Dmx_core.Error.to_string e));
            Alcotest.(check int) "all spans closed inside txn" 0 (Emit.depth ());
            Ok ())
      in
      ignore (check_ok "txn" r);
      Alcotest.(check int) "all spans closed after commit" 0 (Emit.depth ());
      let lines = List.rev !lines in
      let veto_attach =
        match
          List.find_opt
            (fun l ->
              contains l "\"name\":\"attach.insert\""
              && contains l "\"outcome\":\"veto\"")
            lines
        with
        | Some l -> l
        | None -> Alcotest.fail "no vetoed attach.insert span emitted"
      in
      Alcotest.(check bool) "attachment attrs carried" true
        (contains veto_attach "type_id"
        && contains veto_attach "\"new\":"
        && contains veto_attach "\"reason\":");
      let veto_rel =
        match
          List.find_opt
            (fun l ->
              contains l "\"name\":\"relation.insert\""
              && contains l "\"outcome\":\"veto\"")
            lines
        with
        | Some l -> l
        | None -> Alcotest.fail "no vetoed relation.insert span emitted"
      in
      Alcotest.(check int) "attach span nests under the relation op"
        (json_int veto_rel "id")
        (json_int veto_attach "parent");
      Alcotest.(check int) "same transaction" (json_int veto_rel "txn")
        (json_int veto_attach "txn");
      (* WAL appends from the same transaction show up as events. *)
      Alcotest.(check bool) "wal.append events present" true
        (List.exists (fun l -> contains l "\"name\":\"wal.append\"") lines));
  Db.close db

(* ---- counters wired into the substrate ---- *)

let test_lock_conflict_counter () =
  with_obs (fun () ->
      Metrics.set_enabled true;
      let grants = Metrics.counter "lock.grants" in
      let conflicts = Metrics.counter "lock.conflicts" in
      let g0 = Metrics.value grants and c0 = Metrics.value conflicts in
      let lt = Lock_table.create () in
      (match Lock_table.acquire lt ~txid:1 ~mode:Dmx_lock.Lock_mode.X
               (Lock_table.Relation 7)
       with
      | Lock_table.Granted -> ()
      | Lock_table.Would_block _ -> Alcotest.fail "first X should grant");
      (match Lock_table.acquire lt ~txid:2 ~mode:Dmx_lock.Lock_mode.X
               (Lock_table.Relation 7)
       with
      | Lock_table.Would_block [ 1 ] -> ()
      | _ -> Alcotest.fail "second X should conflict with txn 1");
      Alcotest.(check int) "one grant" (g0 + 1) (Metrics.value grants);
      Alcotest.(check int) "one conflict" (c0 + 1) (Metrics.value conflicts))

let seed_rel db ctx =
  ignore
    (check_ok "create"
       (Db.create_relation db ctx ~name:"emp_pc" ~schema:emp_schema ()));
  for i = 1 to 10 do
    ignore
      (check_ok "insert"
         (Db.insert db ctx ~relation:"emp_pc" (emp i (Fmt.str "u%d" i) "eng" i)))
  done

let test_plan_cache_accounting () =
  ignore (fresh_services ());
  let db = Db.open_database () in
  with_obs (fun () ->
      Metrics.set_enabled true;
      let r =
        Db.with_txn db (fun ctx ->
            seed_rel db ctx;
            Plan_cache.reset_stats db.Db.cache;
            let q = Query.select ~where:"salary > 0" "emp_pc" in
            for _ = 1 to 3 do
              ignore (check_ok "query" (Db.query db ctx q ()))
            done;
            (* DDL bumps the descriptor version: the cached plan invalidates. *)
            check_ok "index"
              (Db.create_attachment db ctx ~relation:"emp_pc"
                 ~attachment_type:"btree_index" ~name:"by_id"
                 ~attrs:[ ("fields", "id") ] ());
            for _ = 1 to 2 do
              ignore (check_ok "query2" (Db.query db ctx q ()))
            done;
            let s = Plan_cache.stats db.Db.cache in
            Alcotest.(check int) "every execution either hits or translates" 5
              (s.Plan_cache.hits + s.Plan_cache.translations);
            Alcotest.(check bool) "invalidation observed" true
              (s.Plan_cache.invalidations >= 1);
            Alcotest.(check bool) "plan_cache probe exposed" true
              (List.mem_assoc "plan_cache.hits" (Metrics.snapshot ()));
            Ok ())
      in
      ignore (check_ok "txn" r));
  Db.close db

(* Probes mirror state owned elsewhere; [Metrics.reset] must rebase them
   rather than leave old totals in place (bench deltas went negative when a
   fresh database re-pointed a probe after a reset). *)
let test_reset_rebases_probes () =
  ignore (fresh_services ());
  let db = Db.open_database () in
  with_obs (fun () ->
      Metrics.set_enabled true;
      ignore
        (check_ok "warm"
           (Db.with_txn db (fun ctx ->
                seed_rel db ctx;
                ignore
                  (check_ok "q" (Db.query db ctx (Query.select "emp_pc") ()));
                Ok ())));
      Metrics.reset ();
      let after_reset = Metrics.snapshot () in
      Alcotest.(check int) "io probe starts from zero after reset" 0
        (List.assoc "io.pool_hits" after_reset);
      ignore
        (check_ok "work"
           (Db.with_txn db (fun ctx ->
                ignore
                  (check_ok "q" (Db.query db ctx (Query.select "emp_pc") ()));
                Ok ())));
      let snap = Metrics.snapshot () in
      Alcotest.(check bool) "work after the reset is counted" true
        (List.assoc "io.pool_hits" snap > 0);
      List.iter
        (fun (name, v) ->
          Alcotest.(check bool) (Fmt.str "%s non-negative (%d)" name v) true
            (v >= 0))
        snap);
  Db.close db

(* The "io" probe covers every database the process opened, not just the
   newest: the page reads of two databases opened in turn add up. *)
let test_io_probe_spans_databases () =
  ignore (fresh_services ());
  with_obs (fun () ->
      Metrics.set_enabled true;
      Metrics.reset ();
      let reads_of () =
        (* a 4-frame pool: the scan re-reads pages the inserts evicted *)
        let db = Db.open_database ~pool_capacity:4 () in
        ignore
          (check_ok "work"
             (Db.with_txn db (fun ctx ->
                  ignore
                    (check_ok "create"
                       (Db.create_relation db ctx ~name:"emp_io"
                          ~schema:emp_schema ()));
                  for i = 1 to 300 do
                    ignore
                      (check_ok "insert"
                         (Db.insert db ctx ~relation:"emp_io"
                            (emp i (String.make 40 'n') "eng" i)))
                  done;
                  ignore
                    (check_ok "q" (Db.query db ctx (Query.select "emp_io") ()));
                  Ok ())));
        let io = Dmx_core.Services.io_stats db.Db.services in
        let reads = io.Dmx_page.Io_stats.page_reads in
        Db.close db;
        reads
      in
      let first = reads_of () in
      let second = reads_of () in
      Alcotest.(check bool) "each database read pages" true
        (first > 0 && second > 0);
      Alcotest.(check int) "io.page_reads counts both databases"
        (first + second)
        (List.assoc "io.page_reads" (Metrics.snapshot ())))

(* DMX_OBS is the one telemetry switch: a comma-separated sink list. *)
let test_dmx_obs_parsing () =
  Alcotest.(check bool) "names, case and blanks" true
    (Emit.sinks_of_string " metrics,TRACE,, events ,profile,statements"
    = [ `Metrics; `Trace; `Events; `Profile; `Statements ]);
  Alcotest.(check bool) "unknown names are skipped" true
    (Emit.sinks_of_string "trace,bogus" = [ `Trace ]);
  Alcotest.(check bool) "empty arms nothing" true (Emit.sinks_of_string "" = [])

let suite =
  [
    Alcotest.test_case "counter gating" `Quick test_counter_gating;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_histogram_boundaries;
    Alcotest.test_case "disabled mode allocates nothing" `Quick
      test_disabled_mode_no_alloc;
    Alcotest.test_case "json exposition" `Quick test_json_exposition;
    Alcotest.test_case "span nesting and veto outcome" `Quick
      test_span_nesting_and_veto;
    Alcotest.test_case "lock conflict counters" `Quick
      test_lock_conflict_counter;
    Alcotest.test_case "plan-cache accounting" `Quick
      test_plan_cache_accounting;
    Alcotest.test_case "reset rebases probes" `Quick test_reset_rebases_probes;
    Alcotest.test_case "io probe spans databases" `Quick
      test_io_probe_spans_databases;
    Alcotest.test_case "DMX_OBS sink list" `Quick test_dmx_obs_parsing;
  ]
