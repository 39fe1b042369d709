(* dmx-introspect: system views as relations, plus the engine event ring. *)
open Dmx_value
open Test_util
module Db = Dmx_db.Db
module Query = Dmx_query.Query
module Error = Dmx_core.Error
module Sysview = Dmx_smethod.Sysview
module Metrics = Dmx_obs.Metrics
module Event_ring = Dmx_obs.Event_ring
module Emit = Dmx_obs.Emit

let open_db () =
  ignore (fresh_services ());
  Db.open_database ()

(* Every test restores the global ring/obs state it touched. *)
let with_ring f =
  let ring = Emit.ring () in
  let cap = Event_ring.capacity ring and slow = Event_ring.slow_us ring in
  Fun.protect
    ~finally:(fun () ->
      Emit.disarm `Events;
      Event_ring.set_capacity ring cap;
      Event_ring.set_slow_us ring slow;
      Metrics.set_enabled false)
    (fun () -> f ring)

let all_views =
  [ "dmx_metrics"; "dmx_relations"; "dmx_locks"; "dmx_lock_waits";
    "dmx_txns"; "dmx_bufpool"; "dmx_wal"; "dmx_plan_cache"; "dmx_profile";
    "dmx_events"; "dmx_statements"; "dmx_statement_plans" ]

let get_string = function
  | Value.String s -> s
  | v -> Alcotest.failf "expected string, got %a" Value.pp v

(* ---- every view answers a plain select through the standard path ---- *)

let test_all_views_queryable () =
  let db = open_db () in
  ignore
    (check_ok "txn"
       (Db.with_txn db (fun ctx ->
            List.iter
              (fun view ->
                let rows =
                  check_ok view (Db.query db ctx (Query.select view) ())
                in
                ignore rows)
              all_views;
            (* dmx_wal is a single-row view *)
            let wal =
              check_ok "wal" (Db.query db ctx (Query.select "dmx_wal") ())
            in
            Alcotest.(check int) "dmx_wal has one row" 1 (List.length wal);
            Ok ())));
  Db.close db

let test_predicates_and_projection () =
  let db = open_db () in
  ignore
    (check_ok "txn"
       (Db.with_txn db (fun ctx ->
            (* every view is itself a relation of method sysview *)
            let q =
              Query.select ~where:"smethod = 'sysview'" ~project:[ "name" ]
                "dmx_relations"
            in
            let rows = check_ok "views" (Db.query db ctx q ()) in
            Alcotest.(check int) "all system views" (List.length all_views)
              (List.length rows);
            List.iter
              (fun r -> Alcotest.(check int) "projected to name" 1 (Array.length r))
              rows;
            let names = List.sort compare (List.map (fun r -> get_string r.(0)) rows) in
            Alcotest.(check (list string)) "view names"
              (List.sort compare all_views) names;
            (* a sysview's own record count is reported as -1 (recursion guard) *)
            let q2 =
              Query.select ~where:"name = 'dmx_relations'"
                ~project:[ "records" ] "dmx_relations"
            in
            (match check_ok "self" (Db.query db ctx q2 ()) with
            | [ [| records |] ] ->
              Alcotest.check value_testable "self count sentinel" (vi (-1)) records
            | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
            (* predicate over dmx_metrics picks out one counter *)
            Metrics.set_enabled true;
            Metrics.incr (Metrics.counter "sysview.test_probe");
            let q3 =
              Query.select ~where:"name = 'sysview.test_probe'"
                ~project:[ "name"; "value" ] "dmx_metrics"
            in
            (match check_ok "metric" (Db.query db ctx q3 ()) with
            | [ [| name; value |] ] ->
              Alcotest.check value_testable "name" (vs "sysview.test_probe") name;
              Alcotest.check value_testable "value" (Value.Float 1.) value
            | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
            Metrics.set_enabled false;
            Ok ())));
  Db.close db

let test_read_only () =
  let db = open_db () in
  ignore
    (check_ok "txn"
       (Db.with_txn db (fun ctx ->
            let expect_read_only what = function
              | Error (Error.Read_only _) -> ()
              | Ok _ -> Alcotest.failf "%s on a sysview succeeded" what
              | Error e ->
                Alcotest.failf "%s: expected Read_only, got %s" what
                  (Error.to_string e)
            in
            let wal_row =
              [| vi 0; vi 0; vi 0; vi 0; vi 0; vi 0; vi 0; vi 0; vi 0; vi 0;
                 vi 0 |]
            in
            expect_read_only "insert"
              (Db.insert db ctx ~relation:"dmx_wal" wal_row);
            (* grab a live key via scan, then try to update/delete it *)
            let desc = check_ok "desc" (Db.relation db ctx "dmx_wal") in
            let (module M : Dmx_core.Intf.STORAGE_METHOD) =
              Dmx_core.Registry.storage_method desc.smethod_id
            in
            let scan = M.scan ctx desc () in
            let key, _ =
              match scan.rs_next () with
              | Some kv -> kv
              | None -> Alcotest.fail "dmx_wal scan empty"
            in
            scan.rs_close ();
            expect_read_only "update"
              (Db.update db ctx ~relation:"dmx_wal" key wal_row);
            expect_read_only "delete" (Db.delete db ctx ~relation:"dmx_wal" key);
            Ok ())));
  Db.close db

(* ---- mid-flight snapshots: a txn sees its own grants and active row ---- *)

let test_midflight_locks_and_txns () =
  let db = open_db () in
  let ctx = Db.begin_txn db in
  let txid = ctx.Dmx_core.Ctx.txn.Dmx_txn.Txn.id in
  ignore
    (check_ok "create"
       (Db.create_relation db ctx ~name:"t" ~schema:emp_schema ()));
  ignore (check_ok "ins" (Db.insert db ctx ~relation:"t" (emp 1 "a" "eng" 10)));
  (* dmx_locks: this txn holds granted locks, none waiting *)
  let where = Fmt.str "txid = %d" txid in
  let locks =
    check_ok "locks" (Db.query db ctx (Query.select ~where "dmx_locks") ())
  in
  Alcotest.(check bool) "holds granted locks" true (List.length locks > 0);
  List.iter
    (fun r ->
      Alcotest.check value_testable "state" (vs "granted") r.(4))
    locks;
  let waiting =
    check_ok "waiting"
      (Db.query db ctx
         (Query.select ~where:"state = 'waiting'" "dmx_locks") ())
  in
  Alcotest.(check int) "nothing waiting" 0 (List.length waiting);
  (* dmx_lock_waits: no edges when nothing blocks *)
  let edges =
    check_ok "edges" (Db.query db ctx (Query.select "dmx_lock_waits") ())
  in
  Alcotest.(check int) "no waits-for edges" 0 (List.length edges);
  (* dmx_txns: exactly one active row — this txn — holding locks and log *)
  let txns =
    check_ok "txns"
      (Db.query db ctx (Query.select ~where:"state = 'active'" "dmx_txns") ())
  in
  (match txns with
  | [ row ] ->
    Alcotest.check value_testable "txid" (vi txid) row.(0);
    let nonzero label = function
      | Value.Int n -> Alcotest.(check bool) label true (Int64.compare n 0L > 0)
      | v -> Alcotest.failf "%s: expected int, got %a" label Value.pp v
    in
    nonzero "log_records" row.(2);
    nonzero "undo_depth" row.(3);
    nonzero "locks" row.(6)
  | rows -> Alcotest.failf "expected 1 active txn, got %d" (List.length rows));
  Db.commit db ctx;
  (* after commit the active set is empty again (checker txn aside) *)
  ignore
    (check_ok "after"
       (Db.with_txn db (fun ctx ->
            let mine = ctx.Dmx_core.Ctx.txn.Dmx_txn.Txn.id in
            let active =
              check_ok "active"
                (Db.query db ctx
                   (Query.select ~where:"state = 'active'" "dmx_txns") ())
            in
            (match active with
            | [ row ] -> Alcotest.check value_testable "only checker" (vi mine) row.(0)
            | rows -> Alcotest.failf "expected 1 active, got %d" (List.length rows));
            Ok ())));
  Db.close db

(* ---- provider/DDL contract ---- *)

let test_provider_validation () =
  let db = open_db () in
  ignore
    (check_ok "txn"
       (Db.with_txn db (fun ctx ->
            (* unknown provider is refused at create time *)
            (match
               Db.create_relation db ctx ~name:"bogus"
                 ~schema:emp_schema ~storage_method:"sysview"
                 ~attrs:[ ("provider", "no_such_provider") ] ()
             with
            | Ok _ -> Alcotest.fail "unknown provider accepted"
            | Error _ -> ());
            (* schema must match the provider's schema exactly *)
            (match
               Db.create_relation db ctx ~name:"bad_schema"
                 ~schema:emp_schema ~storage_method:"sysview"
                 ~attrs:[ ("provider", "wal") ] ()
             with
            | Ok _ -> Alcotest.fail "schema mismatch accepted"
            | Error _ -> ());
            (* the provider attr is required *)
            (match
               Db.create_relation db ctx ~name:"no_provider"
                 ~schema:emp_schema ~storage_method:"sysview" ()
             with
            | Ok _ -> Alcotest.fail "missing provider attr accepted"
            | Error _ -> ());
            Ok ())));
  Db.close db

let test_mount_idempotent () =
  let db = open_db () in
  ignore
    (check_ok "txn"
       (Db.with_txn db (fun ctx ->
            let created = check_ok "remount" (Db.mount_system_views ctx) in
            Alcotest.(check int) "second mount creates nothing" 0
              (List.length created);
            Ok ())));
  Db.close db

(* ---- the event ring ---- *)

let test_event_ring_overwrite () =
  with_ring (fun ring ->
      Event_ring.set_capacity ring 4;
      Emit.arm `Events;
      Alcotest.(check bool) "the ring arms the one gate" true (Emit.active ());
      for i = 1 to 6 do
        Event_ring.record ring ~kind:Event_ring.Span ~name:(Fmt.str "op%d" i)
          ~txid:i ~us:(float_of_int i) ~outcome:"ok"
      done;
      let entries = Event_ring.snapshot ring in
      Alcotest.(check int) "capacity bounds the ring" 4 (List.length entries);
      Alcotest.(check int) "two overwritten" 2 (Event_ring.dropped ring);
      Alcotest.(check int) "total appended" 6 (Event_ring.total ring);
      Alcotest.(check (list string)) "oldest first, oldest two gone"
        [ "op3"; "op4"; "op5"; "op6" ]
        (List.map (fun e -> e.Event_ring.e_name) entries);
      let seqs = List.map (fun e -> e.Event_ring.e_seq) entries in
      Alcotest.(check (list int)) "sequence numbers survive overwrite"
        [ 3; 4; 5; 6 ] seqs;
      Emit.disarm `Events;
      Alcotest.(check bool) "gate drops with the ring" false (Emit.active ());
      Emit.with_span "ignored" (fun () -> Emit.event "ignored");
      Alcotest.(check int) "disarmed ring records nothing" 6
        (Event_ring.total ring))

let test_event_ring_slow_tagging () =
  with_ring (fun ring ->
      Event_ring.set_capacity ring 16;
      Event_ring.set_slow_us ring 100.;
      Event_ring.record ring ~kind:Event_ring.Span ~name:"fast" ~txid:1 ~us:99.
        ~outcome:"ok";
      Event_ring.record ring ~kind:Event_ring.Span ~name:"slow" ~txid:1
        ~us:100. ~outcome:"ok";
      (match Event_ring.snapshot ring with
      | [ fast; slow ] ->
        Alcotest.(check bool) "below threshold untagged" false
          fast.Event_ring.e_slow;
        Alcotest.(check bool) "at threshold tagged" true slow.Event_ring.e_slow
      | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)))

let test_events_view_sees_engine_spans () =
  with_ring (fun ring ->
      let db = open_db () in
      Event_ring.set_capacity ring 256;
      Emit.arm `Events;
      ignore
        (check_ok "txn"
           (Db.with_txn db (fun ctx ->
                ignore
                  (check_ok "create"
                     (Db.create_relation db ctx ~name:"t" ~schema:emp_schema ()));
                ignore
                  (check_ok "ins"
                     (Db.insert db ctx ~relation:"t" (emp 1 "a" "eng" 10)));
                let q =
                  Query.select ~where:"name = 'relation.insert'" "dmx_events"
                in
                let rows = check_ok "events" (Db.query db ctx q ()) in
                Alcotest.(check bool) "insert span reached the ring" true
                  (List.length rows > 0);
                List.iter
                  (fun r ->
                    Alcotest.check value_testable "kind" (vs "span") r.(2))
                  rows;
                Ok ())));
      Db.close db)

let suite =
  [
    Alcotest.test_case "all views queryable" `Quick test_all_views_queryable;
    Alcotest.test_case "predicates and projection" `Quick
      test_predicates_and_projection;
    Alcotest.test_case "sysviews are read-only" `Quick test_read_only;
    Alcotest.test_case "mid-flight locks and txns" `Quick
      test_midflight_locks_and_txns;
    Alcotest.test_case "provider validation" `Quick test_provider_validation;
    Alcotest.test_case "mount is idempotent" `Quick test_mount_idempotent;
    Alcotest.test_case "event ring overwrite" `Quick test_event_ring_overwrite;
    Alcotest.test_case "event ring slow tagging" `Quick
      test_event_ring_slow_tagging;
    Alcotest.test_case "dmx_events sees engine spans" `Quick
      test_events_view_sees_engine_spans;
  ]
