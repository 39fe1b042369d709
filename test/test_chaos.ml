(* dmx-chaos smoke: Fault_disk fault semantics at the Disk level, plus
   bounded torture sweeps (crash-at-every-op, every-I/O-error, crash-during-
   recovery) and the mutation runs proving the oracle can catch a broken undo
   and a skipped redo.
   The full multi-seed sweep lives in bin/dmx_chaos.exe; these runs are kept
   small enough for every `dune runtest`. *)

open Dmx_page
module H = Dmx_torture.Chaos_harness

let filled d c = Bytes.make (Disk.page_size d) c

let check_fault what expected f =
  match f () with
  | _ -> Alcotest.failf "%s: no fault fired" what
  | exception Fault_disk.Injected { fault; _ } ->
    Alcotest.(check string)
      what
      (Fault_disk.fault_to_string expected)
      (Fault_disk.fault_to_string fault)

(* ---- Fault_disk unit semantics ---- *)

let test_write_error_one_shot () =
  let fd = Fault_disk.create () in
  let d = Fault_disk.disk fd in
  let p = Disk.alloc d in
  Fault_disk.plan_write_error fd ~nth:(Fault_disk.write_count fd + 1);
  check_fault "write error" Fault_disk.Write_error (fun () ->
      Disk.write d p (filled d 'a'));
  (* one-shot: the store did not crash and the next write applies *)
  Disk.write d p (filled d 'b');
  Alcotest.(check char) "second write applied" 'b' (Bytes.get (Disk.read d p) 0)

let test_sync_error_hardens_nothing () =
  let fd = Fault_disk.create () in
  let d = Fault_disk.disk fd in
  let p = Disk.alloc d in
  Disk.write d p (filled d 'a');
  Disk.sync d;
  Disk.write d p (filled d 'b');
  Fault_disk.plan_sync_error fd ~nth:(Fault_disk.sync_count fd + 1);
  check_fault "sync error" Fault_disk.Sync_error (fun () -> Disk.sync d);
  Fault_disk.crash fd;
  Alcotest.(check char)
    "unsynced write lost" 'a'
    (Bytes.get (Disk.read d p) 0)

let test_crash_discards_unsynced () =
  let fd = Fault_disk.create () in
  let d = Fault_disk.disk fd in
  let p1 = Disk.alloc d in
  Disk.write d p1 (filled d 'a');
  Disk.sync d;
  Disk.write d p1 (filled d 'b');
  let p2 = Disk.alloc d in
  Disk.write d p2 (filled d 'c');
  Alcotest.(check int) "two pages before crash" 2 (Disk.page_count d);
  Fault_disk.crash fd;
  Alcotest.(check int) "young page vanished" 1 (Disk.page_count d);
  Alcotest.(check char)
    "durable image restored" 'a'
    (Bytes.get (Disk.read d p1) 0)

let test_torn_write () =
  let fd = Fault_disk.create () in
  let d = Fault_disk.disk fd in
  let p = Disk.alloc d in
  Disk.write d p (filled d 'a');
  Disk.sync d;
  Fault_disk.plan_torn_write fd ~nth:(Fault_disk.write_count fd + 1);
  check_fault "torn write" Fault_disk.Torn_write (fun () ->
      Disk.write d p (filled d 'b'));
  Fault_disk.crash fd;
  let data = Disk.read d p in
  let half = Disk.page_size d / 2 in
  Alcotest.(check char) "first half torn in" 'b' (Bytes.get data 0);
  Alcotest.(check char) "first half torn in (end)" 'b' (Bytes.get data (half - 1));
  Alcotest.(check char) "second half kept" 'a' (Bytes.get data half)

let test_op_counter_monotone () =
  let fd = Fault_disk.create () in
  let d = Fault_disk.disk fd in
  let p = Disk.alloc d in
  Disk.write d p (filled d 'a');
  let before = Fault_disk.op_count fd in
  Fault_disk.plan_crash_at fd (before + 1);
  check_fault "crash" Fault_disk.Crash (fun () -> Disk.read d p);
  Fault_disk.crash fd;
  Fault_disk.clear_plan fd;
  ignore (Disk.alloc d);
  Alcotest.(check bool)
    "counter survives the crash" true
    (Fault_disk.op_count fd > before)

(* ---- bounded torture sweeps ---- *)

let config seed = { (H.default_config ~seed) with H.n_txns = 4; ops_per_txn = 5 }

let check_report (r : H.seed_report) =
  if r.H.sr_bad <> [] then
    Alcotest.failf "%a" H.pp_seed_report r

let test_clean_episode () =
  let ep = H.run_episode (config 42) H.No_fault in
  Alcotest.(check (list string)) "oracle consistent" [] ep.H.ep_failures;
  Alcotest.(check bool) "workload did I/O" true (ep.H.ep_ops > 0)

let test_crash_sweep () =
  check_report (H.sweep (config 42) H.Mode_crash ~recovery_crash:false)

let test_io_error_sweep () =
  check_report (H.sweep (config 43) H.Mode_io_error ~recovery_crash:false)

let test_recovery_crash_sweep () =
  check_report (H.sweep (config 44) H.Mode_crash ~recovery_crash:true)

let test_introspected_crash_sweep () =
  (* same crash sweep, but after every recovery the harness also mounts the
     dmx_* system views and asks the engine about itself: dmx_txns must show
     exactly the checker's transaction active and dmx_locks no foreign
     grants *)
  check_report
    (H.sweep
       { (config 42) with H.introspect = true }
       H.Mode_crash ~recovery_crash:false)

let test_ckpt_crash_sweep () =
  (* crash at every disk op with checkpoints firing mid-transaction: a
     slice of the points land inside the checkpoint's page writes and sync,
     its record's flush, and log truncation *)
  check_report
    (H.sweep
       { (config 46) with H.checkpoint_every = 3 }
       H.Mode_ckpt_crash ~recovery_crash:false)

let test_truncate_crash_sweep () =
  (* crash at every truncation phase event: before the rewrite, between the
     tmp-file write and the rename, and right after the swap *)
  check_report
    (H.sweep
       { (config 47) with H.checkpoint_every = 3 }
       H.Mode_truncate_crash ~recovery_crash:false)

let test_ckpt_recovery_crash_sweep () =
  (* mid-restart-from-checkpoint: the workload checkpoints (so restart seeds
     from the last Checkpoint record), crashes, and then the recovery run
     itself is crashed at a varying gap — restart from a checkpoint must be
     idempotent *)
  check_report
    (H.sweep
       { (config 48) with H.checkpoint_every = 3 }
       H.Mode_ckpt_crash ~recovery_crash:true)

let test_restart_equivalence () =
  (* the differential: same seeded workload, same workload-position crash,
     with checkpoints off vs on — both recovered states must match the same
     committed model exactly *)
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        (Fmt.str "seed %d restart equivalence" seed)
        []
        (H.restart_equivalence (config seed) ~checkpoint_every:3))
    [ 42; 43; 44 ]

let test_insert_many_sweeps () =
  (* seed 64's script carries four multi-page insert_many batches. A write
     error while a batch evicts a page it already filled aborts the
     transaction, and the abort must undo every record the batch placed —
     which it can only if each was logged before its slot write. *)
  check_report (H.sweep (config 64) H.Mode_io_error ~recovery_crash:false);
  check_report (H.sweep (config 64) H.Mode_crash ~recovery_crash:false)

(* Break one attachment's undo on purpose: some fault point must now leave
   a ghost index entry that the oracle reports. A silent pass would mean the
   oracle cannot actually see that index's corruption. A crash-time loser's
   pages rarely become durable (a write hardens only at the next sync), so
   the seed's script must roll back a change of that index itself: seed 43
   rolls back child rows (btree "camt"), seed 41 parent rows (hash
   "hdept"). *)
let mutation_caught attachment seed () =
  H.enable_undo_mutation attachment;
  let r =
    Fun.protect ~finally:H.disable_undo_mutation (fun () ->
        H.sweep (config seed) H.Mode_crash ~recovery_crash:false)
  in
  Alcotest.(check bool)
    (Fmt.str "oracle caught the broken %s undo" attachment)
    true (r.H.sr_bad <> [])

(* Break btree_index redo on purpose: a committed index change the store
   lost at the crash (commit forces no page) stays lost, and the oracle's
   index audits must report the missing entry. The seed's script must
   commit index changes after the schema's force: seed 41 does. *)
let redo_mutation_caught attachment seed () =
  H.enable_redo_mutation attachment;
  let r =
    Fun.protect ~finally:H.disable_redo_mutation (fun () ->
        H.sweep (config seed) H.Mode_crash ~recovery_crash:false)
  in
  Alcotest.(check bool)
    (Fmt.str "oracle caught the skipped %s redo" attachment)
    true (r.H.sr_bad <> [])

let suite =
  [
    Alcotest.test_case "write error is one-shot" `Quick
      test_write_error_one_shot;
    Alcotest.test_case "sync error hardens nothing" `Quick
      test_sync_error_hardens_nothing;
    Alcotest.test_case "crash discards unsynced state" `Quick
      test_crash_discards_unsynced;
    Alcotest.test_case "torn write is half durable" `Quick test_torn_write;
    Alcotest.test_case "op counter is monotone across crashes" `Quick
      test_op_counter_monotone;
    Alcotest.test_case "clean episode is consistent" `Quick test_clean_episode;
    Alcotest.test_case "crash sweep (every op)" `Quick test_crash_sweep;
    Alcotest.test_case "io-error sweep (every write+sync)" `Quick
      test_io_error_sweep;
    Alcotest.test_case "crash-during-recovery sweep" `Quick
      test_recovery_crash_sweep;
    Alcotest.test_case "introspected crash sweep" `Quick
      test_introspected_crash_sweep;
    Alcotest.test_case "crash-in-checkpoint sweep" `Quick
      test_ckpt_crash_sweep;
    Alcotest.test_case "crash-in-truncate sweep" `Quick
      test_truncate_crash_sweep;
    Alcotest.test_case "crash-during-restart-from-checkpoint sweep" `Quick
      test_ckpt_recovery_crash_sweep;
    Alcotest.test_case "restart equivalence with/without checkpoints" `Quick
      test_restart_equivalence;
    Alcotest.test_case "insert_many batches: io-error and crash sweeps" `Quick
      test_insert_many_sweeps;
    Alcotest.test_case "mutation run: oracle catches broken undo" `Quick
      (mutation_caught "btree_index" 43);
    Alcotest.test_case "mutation run: oracle catches broken hash_index undo"
      `Quick (mutation_caught "hash_index" 41);
    Alcotest.test_case "mutation run: oracle catches skipped redo" `Quick
      (redo_mutation_caught "btree_index" 41);
  ]
