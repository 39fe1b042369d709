(* dmx-prof: EXPLAIN ANALYZE, per-extension latency attribution, and the
   offline trace analyzer. *)
open Test_util
module Metrics = Dmx_obs.Metrics
module Emit = Dmx_obs.Emit
module Profile = Dmx_obs.Profile
module Trace_reader = Dmx_obs.Trace_reader
module Db = Dmx_db.Db
module Query = Dmx_query.Query
module Executor = Dmx_query.Executor

let contains = Astring_contains.contains

(* Every test restores the global obs/profile state it touched. *)
let with_prof f =
  Fun.protect
    ~finally:(fun () ->
      Emit.disarm `Trace;
      Emit.use_default_sink ();
      Emit.reset_for_testing ();
      Metrics.set_enabled false;
      Emit.disarm `Profile;
      Emit.reset `Profile)
    f

(* ---- S1: histogram quantiles ---- *)

let test_metrics_quantile () =
  with_prof (fun () ->
      Metrics.set_enabled true;
      let h = Metrics.histogram ~buckets:[| 10.; 20.; 40. |] "prof.q_us" in
      Alcotest.(check (option (float 0.001)))
        "empty histogram has no quantiles" None (Metrics.quantile h 0.5);
      (* 10 observations in the <=10 bucket, 10 in (10,20] *)
      for _ = 1 to 10 do
        Metrics.observe h 5.
      done;
      for _ = 1 to 10 do
        Metrics.observe h 15.
      done;
      (* p50: target = 10th value = top of the first bucket *)
      (match Metrics.quantile h 0.5 with
      | None -> Alcotest.fail "p50 missing"
      | Some v ->
        Alcotest.(check (float 0.01)) "p50 interpolates to bucket edge" 10. v);
      (* p95: 19th of 20, 90% through the (10,20] bucket *)
      (match Metrics.quantile h 0.95 with
      | None -> Alcotest.fail "p95 missing"
      | Some v -> Alcotest.(check (float 0.01)) "p95 interpolated" 19. v);
      (* overflow-only observations clamp to the last bound *)
      let o = Metrics.histogram ~buckets:[| 10. |] "prof.q_over_us" in
      Metrics.observe o 99.;
      (match Metrics.quantile o 0.5 with
      | None -> Alcotest.fail "overflow p50 missing"
      | Some v ->
        Alcotest.(check (float 0.01)) "overflow clamps to last bound" 10. v);
      (* the dump (what `show stats` prints) carries the quantile summary *)
      let dump = Fmt.str "%a" Metrics.pp_dump () in
      Alcotest.(check bool) "pp_dump shows p50/p95/p99" true
        (contains dump "p50=" && contains dump "p95=" && contains dump "p99="))

(* ---- latency attribution ---- *)

let seed_checked_rel db ctx =
  ignore
    (check_ok "create"
       (Db.create_relation db ctx ~name:"emp_prof" ~schema:emp_schema ()));
  check_ok "constraint"
    (Db.create_attachment db ctx ~relation:"emp_prof" ~attachment_type:"check"
       ~name:"paid" ~attrs:[ ("predicate", "salary > 0") ] ())

let test_attribution_with_trace_off () =
  ignore (fresh_services ());
  let db = Db.open_database () in
  with_prof (fun () ->
      (* profiling alone, tracing off: the one gate must still open the
         instrumented dispatch paths *)
      Emit.arm `Profile;
      Emit.reset `Profile;
      Alcotest.(check bool) "gate open" true (Emit.active ());
      let r =
        Db.with_txn db (fun ctx ->
            seed_checked_rel db ctx;
            ignore
              (check_ok "insert ok"
                 (Db.insert db ctx ~relation:"emp_prof" (emp 1 "ada" "eng" 120)));
            (match
               Db.insert db ctx ~relation:"emp_prof" (emp 2 "bob" "eng" (-5))
             with
            | Ok _ -> Alcotest.fail "vetoed insert succeeded"
            | Error (Dmx_core.Error.Veto _) -> ()
            | Error e ->
              Alcotest.failf "expected veto, got %s"
                (Dmx_core.Error.to_string e));
            Ok ())
      in
      ignore (check_ok "txn" r);
      let rows = Profile.report (Emit.profile ()) in
      let find name =
        match List.find_opt (fun r -> r.Profile.r_name = name) rows with
        | Some r -> r
        | None ->
          Alcotest.failf "no %s row (got: %s)" name
            (String.concat ", " (List.map (fun r -> r.Profile.r_name) rows))
      in
      let sm = find "smethod:heap" in
      Alcotest.(check bool) "storage-method work recorded" true
        (sm.Profile.r_calls > 0 && sm.Profile.r_total_us >= 0.);
      let check_row = find "attach:check" in
      Alcotest.(check int) "veto charged to the check attachment" 1
        check_row.Profile.r_vetoes;
      let wal = find "wal" in
      Alcotest.(check bool) "wal appends attributed" true
        (wal.Profile.r_calls > 0);
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Fmt.str "%s: self <= total" r.Profile.r_name)
            true
            (r.Profile.r_self_us <= r.Profile.r_total_us +. 0.001))
        rows;
      (* per-transaction view: the txn that did the work is listed *)
      Alcotest.(check bool) "per-txn table non-empty" true
        (Profile.txids (Emit.profile ()) <> []);
      let rendered = Fmt.str "%a" Profile.pp_report (Emit.profile ()) in
      Alcotest.(check bool) "pp_report names components" true
        (contains rendered "attach:check" && contains rendered "smethod:heap"));
  Db.close db

let test_disabled_frames_allocate_nothing () =
  with_prof (fun () ->
      Emit.disarm `Profile;
      Alcotest.(check bool) "gate closed" false (Emit.active ());
      let body () = () in
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        let sp = Emit.enter "lock.acquire" ~key:Profile.Lock in
        Emit.event "bp.evict";
        Emit.with_span "plan.translate" body;
        Emit.exit sp
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Fmt.str "disabled spans allocate nothing (%.0f words)" words)
        true (words < 256.))

let test_bp_miss_charged_to_caller_txid () =
  with_prof (fun () ->
      Emit.arm `Profile;
      Emit.reset `Profile;
      let d = Dmx_page.Disk.in_memory ~page_size:256 () in
      let bp = Dmx_page.Buffer_pool.create ~capacity:4 d in
      let f = Dmx_page.Buffer_pool.alloc bp in
      let page = f.Dmx_page.Buffer_pool.page_id in
      Dmx_page.Buffer_pool.unpin bp f;
      Dmx_page.Buffer_pool.drop_cache bp;
      (* a miss fill with no enclosing frame: the I/O must be charged to the
         transaction the caller passed, not to the 0 fallback *)
      let f' = Dmx_page.Buffer_pool.pin ~txid:7 bp page in
      Dmx_page.Buffer_pool.unpin bp f';
      Alcotest.(check bool) "txid 7 has an attribution row" true
        (List.mem 7 (Profile.txids (Emit.profile ())));
      match
        List.find_opt
          (fun r -> r.Profile.r_name = "buffer-pool")
          (Profile.txn_report (Emit.profile ()) 7)
      with
      | Some r ->
        Alcotest.(check bool) "fill counted" true (r.Profile.r_calls >= 1)
      | None -> Alcotest.fail "no buffer-pool row charged to txid 7")

(* ---- EXPLAIN ANALYZE ---- *)

let dept_schema =
  Dmx_value.Schema.make_exn
    [
      Dmx_value.Schema.column ~nullable:false "dname" Dmx_value.Value.Tstring;
      Dmx_value.Schema.column "building" Dmx_value.Value.Tstring;
    ]

let test_explain_analyze_join () =
  ignore (fresh_services ());
  let db = Db.open_database () in
  with_prof (fun () ->
      let r =
        Db.with_txn db (fun ctx ->
            ignore
              (check_ok "emp"
                 (Db.create_relation db ctx ~name:"emp_ea" ~schema:emp_schema ()));
            ignore
              (check_ok "dept"
                 (Db.create_relation db ctx ~name:"dept_ea" ~schema:dept_schema
                    ()));
            check_ok "dept pk"
              (Db.create_attachment db ctx ~relation:"dept_ea"
                 ~attachment_type:"btree_index" ~name:"pk"
                 ~attrs:[ ("fields", "dname"); ("unique", "true") ] ());
            for d = 0 to 399 do
              ignore
                (check_ok "d"
                   (Db.insert db ctx ~relation:"dept_ea"
                      [|
                        Dmx_value.Value.String (Fmt.str "d%d" d);
                        Dmx_value.Value.String (Fmt.str "b%d" d);
                      |]))
            done;
            for i = 1 to 40 do
              ignore
                (check_ok "e"
                   (Db.insert db ctx ~relation:"emp_ea"
                      (emp i (Fmt.str "u%d" i) (Fmt.str "d%d" (i mod 40)) (50 + i))))
            done;
            let q =
              Query.join ~where:"salary > 60" "emp_ea"
                ~on:("dept_ea", "dept", "dname")
            in
            let rows, stats = check_ok "analyze" (Db.explain_analyze db ctx q ()) in
            Alcotest.(check int) "rows returned" 30 (List.length rows);
            (* the stats tree mirrors the plan: a result root over the join *)
            Alcotest.(check int) "root rows" 30 stats.Executor.os_rows;
            Alcotest.(check bool) "root has a child operator" true
              (stats.Executor.os_children <> []);
            let join = List.hd stats.Executor.os_children in
            let descendants =
              let rec all st = st :: List.concat_map all st.Executor.os_children in
              all join
            in
            Alcotest.(check bool)
              "some operator did direct (by-key) fetches via the index" true
              (List.exists (fun st -> st.Executor.os_direct > 0) descendants);
            Alcotest.(check bool) "some operator scanned sequentially" true
              (List.exists (fun st -> st.Executor.os_seq > 0) descendants);
            let rendered = Fmt.str "%a" Executor.pp_analysis stats in
            Fmt.epr "DEBUG analysis:@.%s@." rendered;
            List.iter
              (fun needle ->
                Alcotest.(check bool)
                  (Fmt.str "analysis mentions %S" needle)
                  true (contains rendered needle))
              [ "rows=30"; "index_eq"; "pool="; "time="; "direct=" ];
            Ok ())
      in
      ignore (check_ok "txn" r));
  Db.close db

(* ---- trace round-trip through the file sink ---- *)

let tmp_trace name =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "dmx_%s_%d.jsonl" name (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  path

let test_trace_round_trip () =
  ignore (fresh_services ());
  let db = Db.open_database () in
  let path = tmp_trace "roundtrip" in
  with_prof (fun () ->
      Emit.reset_for_testing ();
      Emit.open_file_sink path;
      Emit.arm `Trace;
      let r =
        Db.with_txn db (fun ctx ->
            seed_checked_rel db ctx;
            ignore
              (check_ok "insert ok"
                 (Db.insert db ctx ~relation:"emp_prof" (emp 1 "ada" "eng" 120)));
            (match
               Db.insert db ctx ~relation:"emp_prof" (emp 2 "bob" "eng" (-5))
             with
            | Ok _ -> Alcotest.fail "vetoed insert succeeded"
            | Error (Dmx_core.Error.Veto _) -> ()
            | Error e ->
              Alcotest.failf "expected veto, got %s"
                (Dmx_core.Error.to_string e));
            Ok ())
      in
      ignore (check_ok "txn" r);
      let emitted = Emit.emitted () in
      (* disarming the trace sink flushes it (S3) *)
      Emit.disarm `Trace;
      let records, errors = Trace_reader.load_file path in
      Alcotest.(check (list string)) "every line parses back" [] errors;
      Alcotest.(check int) "no record lost" emitted (List.length records);
      let span name outcome =
        match
          List.find_opt
            (fun r ->
              r.Trace_reader.r_kind = Trace_reader.Span
              && r.Trace_reader.r_name = name
              && r.Trace_reader.r_outcome = outcome)
            records
        with
        | Some r -> r
        | None -> Alcotest.failf "no %s span with outcome %a" name
                    Fmt.(Dump.option string) outcome
      in
      let rel_veto = span "relation.insert" (Some "veto") in
      let att_veto = span "attach.insert" (Some "veto") in
      Alcotest.(check int) "nesting preserved: attach under relation op"
        rel_veto.Trace_reader.r_id att_veto.Trace_reader.r_parent;
      Alcotest.(check int) "txn ids preserved" rel_veto.Trace_reader.r_txn
        att_veto.Trace_reader.r_txn;
      Alcotest.(check bool) "ids are unique" true
        (let ids =
           List.filter_map
             (fun r ->
               if r.Trace_reader.r_kind = Trace_reader.Span then
                 Some r.Trace_reader.r_id
               else None)
             records
         in
         List.length (List.sort_uniq compare ids) = List.length ids);
      Alcotest.(check bool) "durations re-read" true
        (rel_veto.Trace_reader.r_us >= att_veto.Trace_reader.r_us));
  Sys.remove path;
  Db.close db

let test_trace_cap_truncates () =
  ignore (fresh_services ());
  let db = Db.open_database () in
  let path = tmp_trace "cap" in
  Unix.putenv "DMX_TRACE_MAX_MB" "0.0005";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "DMX_TRACE_MAX_MB" "0")
    (fun () ->
      with_prof (fun () ->
          Emit.open_file_sink path;
          Emit.arm `Trace;
          let r =
            Db.with_txn db (fun ctx ->
                seed_checked_rel db ctx;
                for i = 1 to 50 do
                  ignore
                    (check_ok "insert"
                       (Db.insert db ctx ~relation:"emp_prof"
                          (emp i (Fmt.str "u%d" i) "eng" (50 + i))))
                done;
                Ok ())
          in
          ignore (check_ok "txn" r);
          Emit.disarm `Trace;
          let records, errors = Trace_reader.load_file path in
          Alcotest.(check (list string)) "truncated file still parses" [] errors;
          Alcotest.(check bool) "explicit truncation marker present" true
            (Trace_reader.truncated records);
          let size = (Unix.stat path).Unix.st_size in
          Alcotest.(check bool)
            (Fmt.str "file bounded by the cap (%d bytes)" size)
            true
            (size < 1024)));
  Sys.remove path;
  Db.close db

(* ---- reader resilience: truncated / mid-record-cut captures ---- *)

(* A crashed process leaves a trace whose last line was cut mid-record.
   The reader must surface one error for that line and still return every
   complete record before it. *)
let test_reader_cut_mid_record () =
  let path = Filename.temp_file "dmx_cut" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        {|{"ts":1.0,"ev":"span","id":1,"parent":0,"txn":7,"name":"relation.insert","us":50.0,"outcome":"ok"}|};
      output_char oc '\n';
      output_string oc
        {|{"ts":2.0,"ev":"event","id":2,"parent":1,"txn":7,"name":"lock.grant"}|};
      output_char oc '\n';
      (* the cut: a record missing its closing brace and trailing fields *)
      output_string oc {|{"ts":3.0,"ev":"span","id":3,"parent":0,"txn":8,"na|};
      close_out oc;
      let records, errors = Trace_reader.load_file path in
      Alcotest.(check int) "complete records survive" 2 (List.length records);
      Alcotest.(check int) "one error for the cut line" 1 (List.length errors);
      (match records with
      | r :: _ ->
        Alcotest.(check string) "first record intact" "relation.insert"
          r.Trace_reader.r_name;
        Alcotest.(check int) "txn attribution intact" 7 r.Trace_reader.r_txn
      | [] -> Alcotest.fail "no records"))

(* Garbage in the middle of a file (interleaved writers, torn sectors) is
   reported per-line without poisoning neighbours; blank lines are skipped
   silently. *)
let test_reader_interleaved_garbage () =
  let path = Filename.temp_file "dmx_garbage" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let good id name =
        output_string oc
          (Fmt.str
             {|{"ts":%d.0,"ev":"span","id":%d,"parent":0,"txn":1,"name":"%s","us":10.0,"outcome":"ok"}|}
             id id name);
        output_char oc '\n'
      in
      good 1 "relation.fetch";
      output_string oc "not json at all\n";
      output_string oc "\n";
      good 2 "relation.scan";
      output_string oc {|{"ts":9.0,"ev":"span"|};
      output_char oc '\n';
      good 3 "relation.delete";
      close_out oc;
      let records, errors = Trace_reader.load_file path in
      Alcotest.(check int) "three good records" 3 (List.length records);
      Alcotest.(check int) "two bad lines reported" 2 (List.length errors);
      Alcotest.(check (list string)) "file order preserved"
        [ "relation.fetch"; "relation.scan"; "relation.delete" ]
        (List.map (fun r -> r.Trace_reader.r_name) records);
      (* the analyzer still runs over the salvaged records *)
      let tops = Trace_reader.top_spans ~n:5 records in
      Alcotest.(check int) "analyzer over salvage" 3 (List.length tops))

(* ---- offline analyzer golden test ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_analyzer_golden () =
  let records, errors = Trace_reader.load_file "fixtures/trace_pr3.jsonl" in
  Alcotest.(check (list string)) "fixture parses" [] errors;
  (* structural spot-checks first, so a failure is legible *)
  (match Trace_reader.critical_path records with
  | [ root; leaf ] ->
    Alcotest.(check string) "critical path root" "relation.insert"
      root.Trace_reader.r_name;
    Alcotest.(check (float 0.001)) "root is the slowest span" 150.
      root.Trace_reader.r_us;
    Alcotest.(check string) "heaviest child" "attach.insert"
      leaf.Trace_reader.r_name
  | p -> Alcotest.failf "critical path has %d steps, wanted 2" (List.length p));
  let att = Trace_reader.per_attachment records in
  (match
     List.find_opt (fun g -> g.Trace_reader.g_key = "btree_index") att
   with
  | None -> Alcotest.fail "no btree_index attachment stats"
  | Some g ->
    Alcotest.(check (float 0.001)) "btree p50" 25. g.Trace_reader.g_p50;
    Alcotest.(check (float 0.001)) "btree p95" 30. g.Trace_reader.g_p95);
  (match List.find_opt (fun g -> g.Trace_reader.g_key = "check") att with
  | None -> Alcotest.fail "no check attachment stats"
  | Some g -> Alcotest.(check int) "check veto counted" 1 g.Trace_reader.g_vetoes);
  (match Trace_reader.lock_contention records with
  | { c_waiter = 3; c_holder = 2; c_resource = "rec:1/k42"; c_mode = "X"; c_count = 1 }
    :: _ -> ()
  | cs -> Alcotest.failf "unexpected contention head (%d pairs)" (List.length cs));
  (match Trace_reader.deadlock_victims records with
  | [ { v_txn = 3; v_cycle = [ 3; 2 ] } ] -> ()
  | _ -> Alcotest.fail "deadlock victim not recovered");
  (* then the full golden rendering *)
  let got = Fmt.str "%a" (Trace_reader.pp_report ~top:10) records in
  let want = read_file "fixtures/trace_pr3.report.txt" in
  Alcotest.(check string) "golden report" want got

(* Goldens pinning the machine-readable outputs: [Trace_reader.to_json] on
   the PR3 fixture, and the dmx_prof CLI (--json, --statements --json) on a
   capture of stmt.exec spans. *)
let test_to_json_golden () =
  let records, errors = Trace_reader.load_file "fixtures/trace_pr3.jsonl" in
  Alcotest.(check (list string)) "fixture parses" [] errors;
  Alcotest.(check string) "golden to_json"
    (read_file "fixtures/trace_pr3.json")
    (Dmx_obs.Obs_json.to_string (Trace_reader.to_json records) ^ "\n")

let run_prof args =
  let cmd = Filename.quote_command "../bin/dmx_prof.exe" args in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "%s failed" cmd

let test_prof_json_golden () =
  Alcotest.(check string) "dmx_prof --json"
    (read_file "fixtures/trace_stmt.prof.json")
    (run_prof [ "--json"; "fixtures/trace_stmt.jsonl" ])

let test_prof_statements_golden () =
  Alcotest.(check string) "dmx_prof --statements --json"
    (read_file "fixtures/trace_stmt.statements.json")
    (run_prof [ "--statements"; "--json"; "fixtures/trace_stmt.jsonl" ])

let suite =
  [
    Alcotest.test_case "histogram quantiles" `Quick test_metrics_quantile;
    Alcotest.test_case "attribution with tracing off" `Quick
      test_attribution_with_trace_off;
    Alcotest.test_case "disabled frames allocate nothing" `Quick
      test_disabled_frames_allocate_nothing;
    Alcotest.test_case "buffer-pool miss charged to caller txid" `Quick
      test_bp_miss_charged_to_caller_txid;
    Alcotest.test_case "explain analyze on an indexed join" `Quick
      test_explain_analyze_join;
    Alcotest.test_case "trace file round-trip" `Quick test_trace_round_trip;
    Alcotest.test_case "DMX_TRACE_MAX_MB truncation" `Quick
      test_trace_cap_truncates;
    Alcotest.test_case "reader: cut mid-record" `Quick
      test_reader_cut_mid_record;
    Alcotest.test_case "reader: interleaved garbage" `Quick
      test_reader_interleaved_garbage;
    Alcotest.test_case "offline analyzer golden report" `Quick
      test_analyzer_golden;
    Alcotest.test_case "golden: to_json on the PR3 fixture" `Quick
      test_to_json_golden;
    Alcotest.test_case "golden: dmx_prof --json" `Quick test_prof_json_golden;
    Alcotest.test_case "golden: dmx_prof --statements --json" `Quick
      test_prof_statements_golden;
  ]
