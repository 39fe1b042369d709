(* Runtime sanitizer (lib/core/invariant.ml): each check trips with
   DMX_SANITIZE on and is silent with it off. *)

open Dmx_core
open Dmx_page
open Dmx_wal

let with_sanitizer on f =
  Invariant.set_enabled_for_testing (Some on);
  Fun.protect ~finally:(fun () -> Invariant.set_enabled_for_testing None) f

let expect_violation what f =
  match f () with
  | exception Invariant.Invariant_violation msg -> msg
  | _ -> Alcotest.failf "%s: expected Invariant_violation" what

let check_contains what hay needle =
  if not (Astring_contains.contains hay needle) then
    Alcotest.failf "%s: report %S should mention %S" what hay needle

(* A pin taken inside a transaction and never released is reported at
   commit, with the leaking page named. *)
let test_pin_leak_trips () =
  with_sanitizer true (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx = Services.begin_txn sv in
      let frame = Buffer_pool.alloc sv.Services.bp in
      let msg =
        expect_violation "pin leak at commit" (fun () -> Services.commit sv ctx)
      in
      check_contains "pin leak report" msg "buffer-pool pin leak";
      check_contains "pin leak report" msg
        (Fmt.str "page %d" frame.Buffer_pool.page_id);
      Buffer_pool.unpin sv.Services.bp frame;
      Services.close sv)

let test_pin_leak_silent_when_off () =
  with_sanitizer false (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx = Services.begin_txn sv in
      let frame = Buffer_pool.alloc sv.Services.bp in
      Services.commit sv ctx;
      Buffer_pool.unpin sv.Services.bp frame;
      Services.close sv)

(* Balanced transactions never trip the pin check. *)
let test_pin_balance_clean () =
  with_sanitizer true (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx = Services.begin_txn sv in
      let frame = Buffer_pool.alloc sv.Services.bp in
      Buffer_pool.unpin ~dirty:true sv.Services.bp frame;
      Services.commit sv ctx;
      Services.close sv)

(* ---- open-scan balance: the read-path mirror of pin balance ---- *)

let scan_fixture sv =
  let ctx = Services.begin_txn sv in
  let desc =
    Test_util.check_ok "create"
      (Dmx_ddl.Ddl.create_relation ctx ~name:"t" ~schema:Test_util.emp_schema
         ~storage_method:"heap" ())
  in
  ignore
    (Test_util.check_ok "ins"
       (Relation.insert ctx desc (Test_util.emp 1 "a" "d" 10)));
  (ctx, desc)

(* A scan opened inside a transaction and never closed is reported at
   commit, before the transaction manager force-closes it. *)
let test_scan_leak_trips () =
  with_sanitizer true (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx, desc = scan_fixture sv in
      let scan = Test_util.check_ok "scan" (Relation.scan ctx desc ()) in
      let msg =
        expect_violation "scan leak at commit" (fun () ->
            Services.commit sv ctx)
      in
      check_contains "scan leak report" msg "open-scan leak";
      check_contains "scan leak report" msg "1 scan";
      scan.Intf.rs_close ();
      Services.close sv)

(* Batch scans register the same way; leaking one trips too. *)
let test_batch_scan_leak_trips () =
  with_sanitizer true (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx, desc = scan_fixture sv in
      let scan =
        Test_util.check_ok "scan_batch" (Relation.scan_batch ctx desc ())
      in
      let msg =
        expect_violation "batch scan leak at commit" (fun () ->
            Services.commit sv ctx)
      in
      check_contains "scan leak report" msg "open-scan leak";
      scan.Intf.rn_close ();
      Services.close sv)

let test_scan_leak_silent_when_off () =
  with_sanitizer false (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx, desc = scan_fixture sv in
      let _scan = Test_util.check_ok "scan" (Relation.scan ctx desc ()) in
      (* Txn_mgr.commit force-closes the survivor *)
      Services.commit sv ctx;
      Services.close sv)

(* Closed scans balance; and abort is exempt — aborting with scans open is
   the normal error path. *)
let test_scan_balance_clean () =
  with_sanitizer true (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx, desc = scan_fixture sv in
      let scan = Test_util.check_ok "scan" (Relation.scan ctx desc ()) in
      scan.Intf.rs_close ();
      let batch =
        Test_util.check_ok "scan_batch" (Relation.scan_batch ctx desc ())
      in
      batch.Intf.rn_close ();
      Services.commit sv ctx;
      Services.close sv)

let test_scan_leak_abort_exempt () =
  with_sanitizer true (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx, desc = scan_fixture sv in
      let _scan = Test_util.check_ok "scan" (Relation.scan ctx desc ()) in
      Services.abort sv ctx;
      Services.close sv)

(* A WAL append observed with a non-monotone LSN — e.g. a buggy extension
   replaying a stale log index — is vetoed. The observer is seeded as if 100
   records had been appended, then a fresh log appends LSN 1 through it. *)
let test_lsn_monotonicity_trips () =
  with_sanitizer true (fun () ->
      let wal = Wal.in_memory () in
      let obs = Invariant.lsn_observer ~source:"test-wal" () in
      obs 100L;
      Wal.set_append_observer wal obs;
      let msg =
        expect_violation "non-monotone append" (fun () ->
            ignore (Wal.append wal 1 Log_record.Commit))
      in
      check_contains "lsn report" msg "LSN monotonicity broken";
      check_contains "lsn report" msg "test-wal")

let test_lsn_monotonicity_silent_when_off () =
  with_sanitizer false (fun () ->
      let wal = Wal.in_memory () in
      let obs = Invariant.lsn_observer ~source:"test-wal" () in
      obs 100L;
      Wal.set_append_observer wal obs;
      ignore (Wal.append wal 1 Log_record.Commit))

(* Ordinary monotone appends through a full services environment stay
   silent with the sanitizer on. *)
let test_lsn_monotonicity_clean () =
  with_sanitizer true (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx = Services.begin_txn sv in
      Services.commit sv ctx;
      let ctx = Services.begin_txn sv in
      Services.abort sv ctx;
      Services.close sv)

(* Dispatching a relation modification while the registry is still open for
   registration (here: after a reset) is caught before the vectors are hit. *)
let test_unfrozen_dispatch_trips () =
  with_sanitizer true (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx = Services.begin_txn sv in
      let desc =
        Test_util.check_ok "create emp"
          (Dmx_ddl.Ddl.create_relation ctx ~name:"san_emp"
             ~schema:Test_util.emp_schema ~storage_method:"heap" ())
      in
      Test_registry.with_scratch_registry (fun () ->
          (* scratch registry is unfrozen: dispatch must be vetoed *)
          let msg =
            expect_violation "dispatch before freeze" (fun () ->
                ignore (Relation.insert ctx desc (Test_util.emp 1 "a" "eng" 10)))
          in
          check_contains "freeze report" msg "before Registry.freeze");
      (* registry restored (and re-frozen): the same dispatch now works *)
      ignore
        (Test_util.check_ok "insert after restore"
           (Relation.insert ctx desc (Test_util.emp 1 "a" "eng" 10)));
      Services.commit sv ctx;
      Services.close sv)

let test_unfrozen_dispatch_silent_when_off () =
  with_sanitizer false (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx = Services.begin_txn sv in
      let desc =
        Test_util.check_ok "create emp"
          (Dmx_ddl.Ddl.create_relation ctx ~name:"san_emp2"
           ~schema:Test_util.emp_schema ~storage_method:"heap" ())
      in
      (* Sanitizer off: the unfrozen-registry dispatch is NOT vetoed — it
         proceeds all the way into the (now empty) procedure vectors, whose
         stub raises its own Failure, not Invariant_violation. *)
      Test_registry.with_scratch_registry (fun () ->
          match Relation.insert ctx desc (Test_util.emp 2 "b" "eng" 10) with
          | exception Failure msg ->
            check_contains "stub failure" msg "unregistered slot"
          | exception Invariant.Invariant_violation msg ->
            Alcotest.failf "sanitizer fired while disabled: %s" msg
          | _ -> Alcotest.fail "expected the unregistered-slot stub to raise");
      Services.commit sv ctx;
      Services.close sv)

(* ---- lockdep (DESIGN.md §12): runtime lock-order checking ---- *)

module Lock_table = Dmx_lock.Lock_table
module Lock_mode = Dmx_lock.Lock_mode

let rel n = Lock_table.Relation n
let rcd n k = Lock_table.Record (n, k)

(* Two transactions acquiring the same relations in the same order, with the
   record hierarchy respected, never trip. *)
let test_lockdep_ordered_clean () =
  with_sanitizer true (fun () ->
      Invariant.lockdep_reset ();
      Invariant.lockdep_grant ~txid:1 (rel 1) Lock_mode.IX;
      Invariant.lockdep_grant ~txid:1 (rcd 1 "a") Lock_mode.X;
      Invariant.lockdep_grant ~txid:1 (rel 2) Lock_mode.IX;
      Invariant.lockdep_release ~txid:1;
      Invariant.lockdep_grant ~txid:2 (rel 1) Lock_mode.IX;
      Invariant.lockdep_grant ~txid:2 (rel 2) Lock_mode.IX;
      Invariant.lockdep_release ~txid:2)

(* A record grant with no covering relation lock violates the hierarchy. *)
let test_lockdep_hierarchy_trips () =
  with_sanitizer true (fun () ->
      Invariant.lockdep_reset ();
      let msg =
        expect_violation "uncovered record lock" (fun () ->
            Invariant.lockdep_grant ~txid:7 (rcd 3 "k") Lock_mode.X)
      in
      check_contains "hierarchy report" msg "without holding the relation";
      Invariant.lockdep_release ~txid:7)

(* Opposite acquisition orders in conflicting modes: the second schedule
   completes an inversion and raises at the closing grant. *)
let test_lockdep_inversion_trips () =
  with_sanitizer true (fun () ->
      Invariant.lockdep_reset ();
      Invariant.lockdep_grant ~txid:1 (rel 1) Lock_mode.X;
      Invariant.lockdep_grant ~txid:1 (rel 2) Lock_mode.X;
      Invariant.lockdep_release ~txid:1;
      Invariant.lockdep_grant ~txid:2 (rel 2) Lock_mode.X;
      let msg =
        expect_violation "inverted conflicting order" (fun () ->
            Invariant.lockdep_grant ~txid:2 (rel 1) Lock_mode.X)
      in
      check_contains "inversion report" msg "opposite order";
      Invariant.lockdep_release ~txid:2)

(* Opposite orders in compatible modes (shared readers) cannot deadlock and
   must not trip. *)
let test_lockdep_compatible_inversion_clean () =
  with_sanitizer true (fun () ->
      Invariant.lockdep_reset ();
      Invariant.lockdep_grant ~txid:1 (rel 1) Lock_mode.IS;
      Invariant.lockdep_grant ~txid:1 (rel 2) Lock_mode.IS;
      Invariant.lockdep_release ~txid:1;
      Invariant.lockdep_grant ~txid:2 (rel 2) Lock_mode.IS;
      Invariant.lockdep_grant ~txid:2 (rel 1) Lock_mode.IS;
      Invariant.lockdep_release ~txid:2)

(* A relation created by the still-open transaction is invisible to everyone
   else: its grants stay out of the order graph even in an inverted order. *)
let test_lockdep_nascent_exempt () =
  with_sanitizer true (fun () ->
      Invariant.lockdep_reset ();
      Invariant.lockdep_grant ~txid:1 (rel 1) Lock_mode.X;
      Invariant.lockdep_grant ~txid:1 (rel 2) Lock_mode.X;
      Invariant.lockdep_release ~txid:1;
      Invariant.lockdep_grant ~txid:2 (rel 2) Lock_mode.X;
      Invariant.lockdep_mark_nascent ~txid:2 ~rel_id:1;
      (* without the nascent mark this grant would raise (see above) *)
      Invariant.lockdep_grant ~txid:2 (rel 1) Lock_mode.X;
      Invariant.lockdep_release ~txid:2)

(* Observed through the real lock table: a mount made while the sanitizer is
   on installs the grant/release observers, and an ordinary workload (DDL,
   inserts, commit) stays silent. *)
let test_lockdep_end_to_end_clean () =
  with_sanitizer true (fun () ->
      let sv = Test_util.fresh_services () in
      let ctx = Services.begin_txn sv in
      let desc =
        Test_util.check_ok "create emp"
          (Dmx_ddl.Ddl.create_relation ctx ~name:"lockdep_emp"
             ~schema:Test_util.emp_schema ~storage_method:"heap" ())
      in
      ignore
        (Test_util.check_ok "insert"
           (Relation.insert ctx desc (Test_util.emp 1 "a" "eng" 10)));
      Services.commit sv ctx;
      Services.close sv)

(* Disabled sanitizer: the grant path is one branch, no allocation. *)
let test_lockdep_disabled_no_alloc () =
  with_sanitizer false (fun () ->
      Invariant.lockdep_reset ();
      let r = rel 1 in
      let m = Lock_mode.IX in
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Invariant.lockdep_grant ~txid:1 r m;
        Invariant.lockdep_release ~txid:1
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Fmt.str "disabled grant path allocates nothing (%.0f words)" words)
        true (words < 256.))

let suite =
  [
    Alcotest.test_case "pin leak trips at commit" `Quick test_pin_leak_trips;
    Alcotest.test_case "pin leak silent without DMX_SANITIZE" `Quick
      test_pin_leak_silent_when_off;
    Alcotest.test_case "balanced pins stay silent" `Quick test_pin_balance_clean;
    Alcotest.test_case "scan leak trips at commit" `Quick test_scan_leak_trips;
    Alcotest.test_case "batch scan leak trips at commit" `Quick
      test_batch_scan_leak_trips;
    Alcotest.test_case "scan leak silent without DMX_SANITIZE" `Quick
      test_scan_leak_silent_when_off;
    Alcotest.test_case "balanced scans stay silent" `Quick
      test_scan_balance_clean;
    Alcotest.test_case "scan leak exempt at abort" `Quick
      test_scan_leak_abort_exempt;
    Alcotest.test_case "non-monotone LSN append trips" `Quick
      test_lsn_monotonicity_trips;
    Alcotest.test_case "non-monotone LSN silent without DMX_SANITIZE" `Quick
      test_lsn_monotonicity_silent_when_off;
    Alcotest.test_case "monotone appends stay silent" `Quick
      test_lsn_monotonicity_clean;
    Alcotest.test_case "dispatch before freeze trips" `Quick
      test_unfrozen_dispatch_trips;
    Alcotest.test_case "dispatch before freeze silent without DMX_SANITIZE"
      `Quick test_unfrozen_dispatch_silent_when_off;
    Alcotest.test_case "lockdep: ordered acquisitions stay silent" `Quick
      test_lockdep_ordered_clean;
    Alcotest.test_case "lockdep: uncovered record lock trips" `Quick
      test_lockdep_hierarchy_trips;
    Alcotest.test_case "lockdep: conflicting-mode inversion trips" `Quick
      test_lockdep_inversion_trips;
    Alcotest.test_case "lockdep: compatible-mode inversion stays silent" `Quick
      test_lockdep_compatible_inversion_clean;
    Alcotest.test_case "lockdep: nascent relation exempt from order graph"
      `Quick test_lockdep_nascent_exempt;
    Alcotest.test_case "lockdep: end-to-end workload stays silent" `Quick
      test_lockdep_end_to_end_clean;
    Alcotest.test_case "lockdep: disabled mode allocates nothing" `Quick
      test_lockdep_disabled_no_alloc;
  ]
