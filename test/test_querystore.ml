(* dmx-querystore: statement fingerprints, the bounded statement store, and
   plan-change detection. *)
open Dmx_value
open Test_util
module Db = Dmx_db.Db
module Query = Dmx_query.Query
module Fingerprint = Dmx_query.Fingerprint
module Query_store = Dmx_obs.Query_store
module Event_ring = Dmx_obs.Event_ring
module Metrics = Dmx_obs.Metrics
module Emit = Dmx_obs.Emit
module Trace_reader = Dmx_obs.Trace_reader
module Stmt_obs = Dmx_query.Stmt_obs

(* Every test restores the sink state it touched. *)
let with_store f =
  Fun.protect
    ~finally:(fun () ->
      Emit.disarm `Statements;
      Emit.reset `Statements;
      Emit.disarm `Events;
      Emit.disarm `Trace;
      Emit.use_default_sink ();
      Metrics.set_enabled false)
    f

(* ---- fingerprint properties ---- *)

(* a literal-free statement template; holes are filled per property run *)
let template a b = Fmt.str "SELECT * FROM emp WHERE salary > %d AND name = '%s'" a b

(* non-negative: a leading minus is a unary operator token, not part of the
   literal, so "-1" and "1" normalize differently (as in pg_stat_statements) *)
let gen_literal_pair =
  QCheck.pair (QCheck.int_range 0 100_000)
    (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 12)
       (QCheck.Gen.char_range 'a' 'z'))

let prop_literals_never_change_fingerprint =
  QCheck.Test.make ~count:200 ~name:"literal substitution preserves fingerprint"
    (QCheck.pair gen_literal_pair gen_literal_pair)
    (fun ((a1, s1), (a2, s2)) ->
      Fingerprint.of_text (template a1 s1) = Fingerprint.of_text (template a2 s2))

let prop_whitespace_and_case_invariant =
  QCheck.Test.make ~count:200 ~name:"whitespace and keyword case are canonical"
    (QCheck.pair gen_literal_pair (QCheck.int_range 1 5))
    (fun ((a, s), pad) ->
      let spaced =
        Fmt.str "select  *%sFROM emp  WHERE salary >  %d and NAME = '%s'"
          (String.make pad ' ') a s
      in
      Fingerprint.of_text spaced = Fingerprint.of_text (template a s))

let prop_structure_changes_fingerprint =
  QCheck.Test.make ~count:200 ~name:"structural edits always change fingerprint"
    gen_literal_pair
    (fun (a, s) ->
      let fp = Fingerprint.of_text (template a s) in
      fp <> Fingerprint.of_text (Fmt.str "SELECT * FROM dept WHERE salary > %d AND name = '%s'" a s)
      && fp <> Fingerprint.of_text (Fmt.str "SELECT * FROM emp WHERE salary < %d AND name = '%s'" a s)
      && fp <> Fingerprint.of_text (Fmt.str "SELECT id FROM emp WHERE salary > %d AND name = '%s'" a s))

let test_normalize_shape () =
  Alcotest.(check string)
    "literals become ? and text lowercases"
    "select * from emp where salary > ? and name = ?"
    (Fingerprint.normalize "SELECT  *  FROM Emp WHERE salary>123 AND name='O''Brien'");
  Alcotest.(check string)
    "positional params collapse too" "select * from t where a = ?"
    (Fingerprint.normalize "select * from t where a = ?0")

(* ---- store mechanics ---- *)

let mk_exec ?(us = 10.) ?(rows = 1) ?(error = false) ?plan fp =
  {
    Query_store.x_fp = Int64.of_int fp;
    x_text = Fmt.str "select %d" fp;
    x_sample = Fmt.str "select %d" fp;
    x_us = us;
    x_rows = rows;
    x_error = error;
    x_pool_hits = 2;
    x_pool_misses = 1;
    x_page_reads = 1;
    x_wal_bytes = 0;
    x_lock_conflicts = 0;
    x_lock_waits = 0;
    x_vetoes = 0;
    x_plan = plan;
  }

let fps store =
  List.map (fun e -> Int64.to_int e.Query_store.e_fp) (Query_store.entries store)

let test_accumulation () =
  let store = Query_store.create () in
  ignore (Query_store.record store (mk_exec ~us:10. ~rows:3 1));
  ignore (Query_store.record store (mk_exec ~us:30. ~rows:4 ~error:true 1));
  match Query_store.entries store with
      | [ e ] ->
    Alcotest.(check int) "calls" 2 e.Query_store.e_calls;
    Alcotest.(check int) "errors" 1 e.Query_store.e_errors;
    Alcotest.(check int) "rows" 7 e.Query_store.e_rows;
    Alcotest.(check int) "pool hits" 4 e.Query_store.e_pool_hits;
    Alcotest.(check int) "latency samples" 2
      (Metrics.histogram_count e.Query_store.e_latency);
    Alcotest.(check bool) "last_seen advances" true
      (e.Query_store.e_last_seen >= e.Query_store.e_first_seen)
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

let test_lru_eviction () =
  let store = Query_store.create ~capacity:4 () in
  for fp = 1 to 4 do
    ignore (Query_store.record store (mk_exec fp))
  done;
  (* touch 1 so 2 becomes the LRU victim *)
  ignore (Query_store.record store (mk_exec 1));
  ignore (Query_store.record store (mk_exec 5));
  Alcotest.(check int) "at capacity" 4 (Query_store.size store);
  Alcotest.(check int) "one eviction" 1 (Query_store.evicted store);
  Alcotest.(check (list int)) "victim was the LRU entry" [ 1; 3; 4; 5 ]
    (fps store);
  ignore (Query_store.record store (mk_exec 6));
  Alcotest.(check (list int)) "next victim in LRU order" [ 1; 4; 5; 6 ]
    (fps store);
  Alcotest.(check int) "recorded counts every execution" 7
    (Query_store.recorded store)

let test_reset () =
  let store = Query_store.create ~capacity:2 () in
  for fp = 1 to 3 do
    ignore (Query_store.record store (mk_exec fp))
  done;
  Alcotest.(check bool) "populated" true (Query_store.size store > 0);
  Query_store.reset store;
  Alcotest.(check int) "no entries" 0 (Query_store.size store);
  Alcotest.(check int) "evicted zeroed" 0 (Query_store.evicted store);
  Alcotest.(check int) "recorded zeroed" 0 (Query_store.recorded store);
  Alcotest.(check (list (pair string int)))
    "probe reads zeros"
    [ ("stmt.fingerprints", 0); ("stmt.recorded", 0); ("stmt.evicted", 0) ]
    (Query_store.probe store)

let test_plan_notes () =
  let store = Query_store.create () in
  let note h = Query_store.record store (mk_exec ~plan:(Int64.of_int h) 1) in
  Alcotest.(check bool) "first plan" true (note 11 = Query_store.Plan_first);
  Alcotest.(check bool) "same plan" true (note 11 = Query_store.Plan_same);
  Alcotest.(check bool) "flip" true (note 22 = Query_store.Plan_changed 11L);
  let first_seen_11 =
    match Query_store.entries store with
    | [ e ] ->
      (List.find
         (fun u -> u.Query_store.pu_hash = 11L)
         e.Query_store.e_plans)
        .Query_store.pu_first_seen
    | _ -> Alcotest.fail "expected 1 entry"
  in
  Alcotest.(check bool) "flip back" true (note 11 = Query_store.Plan_changed 22L);
  (match Query_store.entries store with
  | [ e ] ->
    Alcotest.(check int) "history holds both" 2
      (List.length e.Query_store.e_plans);
    Alcotest.(check (float 0.))
      "flip back preserves first_seen" first_seen_11
      (List.find (fun u -> u.Query_store.pu_hash = 11L) e.Query_store.e_plans)
        .Query_store.pu_first_seen
  | _ -> Alcotest.fail "expected 1 entry");
  Alcotest.(check bool) "no plan supplied" true
    (Query_store.record store (mk_exec 1) = Query_store.Plan_none)

(* ---- end to end: the query path feeds the store and the views ---- *)

let open_db () =
  ignore (fresh_services ());
  Db.open_database ()

(* With no sink armed the statement bracket is one branch: nothing is
   fingerprinted, allocated or stored. *)
let test_disabled_no_alloc () =
  with_store (fun () ->
      let db = open_db () in
      Emit.disarm `Statements;
      let ctx = Db.begin_txn db in
      let ok = Ok 0 in
      let body ~set_plan:_ = ok in
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        ignore (Stmt_obs.observed ctx ~text:"select 1" ~rows:Fun.id body)
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Fmt.str "disabled statement bracket allocates nothing (%.0f words)"
           words)
        true (words < 256.);
      Alcotest.(check int) "nothing stored" 0
        (Query_store.size (Emit.store ()));
      Db.abort db ctx;
      Db.close db)

let seed db n =
  check_ok "seed"
    (Db.with_txn db (fun ctx ->
         ignore
           (check_ok "create"
              (Db.create_relation db ctx ~name:"emp" ~schema:emp_schema ()));
         for i = 1 to n do
           ignore
             (check_ok "ins"
                (Db.insert db ctx ~relation:"emp"
                   [|
                     vi i; vs (Fmt.str "e%d" i); vs (Fmt.str "d%d" (i mod 5));
                     vi (1000 * i);
                   |]))
         done;
         Ok ()))

let test_query_path_records () =
  with_store (fun () ->
      let db = open_db () in
      Emit.arm `Statements;
      Emit.reset `Statements;
      seed db 20;
      ignore
        (check_ok "selects"
           (Db.with_txn db (fun ctx ->
                (* three literal variants of one statement shape *)
                List.iter
                  (fun sal ->
                    ignore
                      (check_ok "q"
                         (Db.query db ctx
                            (Query.select
                               ~where:(Fmt.str "salary > %d" sal)
                               "emp")
                            ())))
                  [ 5_000; 10_000; 15_000 ];
                Ok ())));
      let entry =
        List.find
          (fun e ->
            e.Query_store.e_text = "select * from emp where salary > ?")
          (Query_store.entries (Emit.store ()))
      in
      Alcotest.(check int) "variants collapse" 3 entry.Query_store.e_calls;
      Alcotest.(check int) "rows accumulate" (15 + 10 + 5)
        entry.Query_store.e_rows;
      Alcotest.(check int) "one plan so far" 1
        (List.length entry.Query_store.e_plans);
      (* the sample keeps Query.key's literal rendering, case included *)
      Alcotest.(check string) "last literal kept"
        "SELECT * FROM emp WHERE salary > 15000" entry.Query_store.e_sample;
      (* the sysview row agrees with the store *)
      ignore
        (check_ok "view"
           (Db.with_txn db (fun ctx ->
                let q =
                  Query.select
                    ~where:
                      (Fmt.str "fingerprint = '%s'"
                         (Fingerprint.hex entry.Query_store.e_fp))
                    ~project:[ "calls"; "rows" ] "dmx_statements"
                in
                (match check_ok "rows" (Db.query db ctx q ()) with
                | [ [| calls; rows |] ] ->
                  Alcotest.check value_testable "view calls" (vi 3) calls;
                  Alcotest.check value_testable "view rows" (vi 30) rows
                | rows ->
                  Alcotest.failf "expected 1 row, got %d" (List.length rows));
                Ok ())));
      Db.close db)

let test_plan_change_emits_event () =
  with_store (fun () ->
      let db = open_db () in
      Emit.arm `Statements;
      Emit.reset `Statements;
      Emit.arm `Events;
      (* enough rows that a unique-index probe beats the sequential scan *)
      seed db 300;
      let select ctx =
        ignore
          (check_ok "q"
             (Db.query db ctx (Query.select ~where:"id = 7" "emp") ()))
      in
      ignore
        (check_ok "workload"
           (Db.with_txn db (fun ctx ->
                select ctx;
                (* an index on id flips the plan from scan to probe *)
                ignore
                  (check_ok "idx"
                     (Db.create_attachment db ctx ~relation:"emp"
                        ~attachment_type:"btree_index" ~name:"pk"
                        ~attrs:[ ("fields", "id"); ("unique", "true") ] ()));
                select ctx;
                Ok ())));
      let entry =
        List.find
          (fun e -> e.Query_store.e_text = "select * from emp where id = ?")
          (Query_store.entries (Emit.store ()))
      in
      Alcotest.(check int) "two plans in history" 2
        (List.length entry.Query_store.e_plans);
      let changed =
        List.filter
          (fun e -> e.Event_ring.e_name = "plan.changed")
          (Event_ring.snapshot (Emit.ring ()))
      in
      Alcotest.(check int) "one plan.changed event" 1 (List.length changed);
      (* the plans view shows both hashes, newest marked current *)
      ignore
        (check_ok "view"
           (Db.with_txn db (fun ctx ->
                let q =
                  Query.select
                    ~where:
                      (Fmt.str "fingerprint = '%s'"
                         (Fingerprint.hex entry.Query_store.e_fp))
                    ~project:[ "plan_hash"; "current" ] "dmx_statement_plans"
                in
                let rows = check_ok "rows" (Db.query db ctx q ()) in
                Alcotest.(check int) "two rows" 2 (List.length rows);
                Alcotest.(check int) "exactly one current" 1
                  (List.length
                     (List.filter (fun r -> r.(1) = Value.Bool true) rows));
                Ok ())));
      Db.close db)

(* Live and offline statement statistics agree: a statement mix run with
   the trace and statements sinks armed yields the same calls, errors, rows
   and latency quantiles in dmx_statements as [Trace_reader.statements]
   recovers from the trace file. *)
let test_live_offline_parity () =
  with_store (fun () ->
      let db = open_db () in
      seed db 60;
      let path = Filename.temp_file "dmx_parity" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Emit.open_file_sink path;
          Emit.arm `Statements;
          Emit.reset `Statements;
          Emit.arm `Trace;
          ignore
            (check_ok "mix"
               (Db.with_txn db (fun ctx ->
                    for i = 1 to 40 do
                      let q =
                        match i mod 4 with
                        | 0 -> Query.select ~where:(Fmt.str "id = %d" i) "emp"
                        | 1 ->
                          Query.select ~where:(Fmt.str "salary > %d" (i * 1000))
                            "emp"
                        | 2 -> Query.select ~where:"no_such_field = 1" "emp"
                        | _ ->
                          Query.select
                            ~where:(Fmt.str "dept = 'd%d'" (i mod 5))
                            ~project:[ "name" ] "emp"
                      in
                      ignore (Db.query db ctx q ())
                    done;
                    Ok ())));
          Emit.disarm `Trace;
          let records, errors = Trace_reader.load_file path in
          Alcotest.(check (list string)) "trace parses" [] errors;
          let offline = Trace_reader.statements records in
          let live = Query_store.entries (Emit.store ()) in
          let view (e : Query_store.entry) =
            ( Fingerprint.hex e.e_fp,
              (e.e_calls, e.e_errors, e.e_rows),
              (Query_store.quantile e 0.5, Query_store.quantile e 0.95) )
          in
          let sorted l = List.sort compare (List.map view l) in
          Alcotest.(check int) "four statement shapes" 4 (List.length live);
          Alcotest.(check bool) "errors observed" true
            (List.exists (fun e -> e.Query_store.e_errors > 0) live);
          Alcotest.(check
                      (list
                         (triple string (triple int int int)
                            (pair (float 0.) (float 0.)))))
            "dmx_statements = Trace_reader.statements" (sorted live)
            (sorted offline));
      Db.close db)

(* satellite: the telemetry-loss probe surfaces ring drops and trace
   truncation in the ordinary metrics snapshot *)
let test_telemetry_loss_probe () =
  with_store (fun () ->
      Metrics.set_enabled true;
      Emit.arm `Events;
      let snap = Metrics.snapshot () in
      Alcotest.(check bool) "events.dropped exposed" true
        (List.mem_assoc "events.dropped" snap);
      Alcotest.(check bool) "trace.truncated exposed" true
        (List.mem_assoc "trace.truncated" snap))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_literals_never_change_fingerprint;
    QCheck_alcotest.to_alcotest prop_whitespace_and_case_invariant;
    QCheck_alcotest.to_alcotest prop_structure_changes_fingerprint;
    Alcotest.test_case "normalize shape" `Quick test_normalize_shape;
    Alcotest.test_case "accumulation" `Quick test_accumulation;
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "plan notes" `Quick test_plan_notes;
    Alcotest.test_case "disabled mode allocates nothing" `Quick
      test_disabled_no_alloc;
    Alcotest.test_case "query path records" `Quick test_query_path_records;
    Alcotest.test_case "plan change emits event" `Quick
      test_plan_change_emits_event;
    Alcotest.test_case "telemetry loss probe" `Quick test_telemetry_loss_probe;
    Alcotest.test_case "live and offline statements agree" `Quick
      test_live_offline_parity;
  ]
