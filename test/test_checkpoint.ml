(* Checkpoints: one Checkpoint record per checkpoint, log truncation
   behind it, bounded restart (analysis seeded from the last Checkpoint
   record), the active-transaction horizon, the automatic policy, and
   torn-checkpoint tolerance. *)
open Dmx_core
open Test_util
module Ddl = Dmx_ddl.Ddl
module Relation = Dmx_core.Relation
module Wal = Dmx_wal.Wal

let with_dir f = with_temp_dir ~prefix:"dmx_ckpt" f

let create_emp ctx =
  check_ok "create"
    (Ddl.create_relation ctx ~name:"employee" ~schema:emp_schema
       ~storage_method:"heap" ())

let insert_batch services ~from ~count =
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
  for i = from to from + count - 1 do
    ignore (check_ok "ins" (Relation.insert ctx desc (emp i "w" "eng" i)))
  done;
  Services.commit services ctx

(* checkpoint truncates the log; restart replays only the tail *)
let test_truncation_and_bounded_restart () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      ignore (create_emp ctx);
      Services.commit services ctx;
      for b = 0 to 4 do
        insert_batch services ~from:(10 * b) ~count:8
      done;
      let before = Wal.record_count services.Services.wal in
      let stats = Services.checkpoint services in
      Alcotest.(check bool) "truncated records" true
        (stats.Services.ck_truncated_records > 0);
      Alcotest.(check bool) "freed bytes" true
        (stats.Services.ck_truncated_bytes > 0);
      Alcotest.(check bool) "no active txns" true
        (stats.Services.ck_active_txns = 0);
      let wal = services.Services.wal in
      Alcotest.(check bool) "base advanced" true (Wal.base_lsn wal > 0L);
      Alcotest.(check bool) "ckpt recorded" true
        (Wal.last_checkpoint_lsn wal > Wal.base_lsn wal);
      Alcotest.(check bool) "log shrank" true
        (Wal.record_count wal < before);
      (* LSNs remain stable across truncation *)
      Alcotest.(check int64) "last_lsn unaffected" stats.Services.ck_lsn
        (Wal.last_lsn wal);
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      (match services.Services.last_recovery with
      | None -> Alcotest.fail "no recovery"
      | Some a ->
        Alcotest.(check bool) "restart seeded past LSN 1" true
          (a.Dmx_wal.Recovery.restart_lsn > 1L);
        (* the scan covers only the checkpoint itself, not the history *)
        Alcotest.(check bool) "bounded analysis scan" true
          (a.Dmx_wal.Recovery.scanned < before / 2));
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "all committed rows survive" 40
        (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

(* an active transaction pins the truncation point at its first LSN; its
   undo chain stays intact through a mid-transaction checkpoint *)
let test_active_txn_pins_truncation () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      ignore (create_emp ctx);
      Services.commit services ctx;
      insert_batch services ~from:0 ~count:5;
      (* open transaction with undoable work, then checkpoint around it *)
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      ignore (check_ok "ins" (Relation.insert ctx desc (emp 100 "x" "eng" 1)));
      let first_lsn =
        match
          List.rev
            ctx.Ctx.txn.Dmx_txn.Txn.chain
        with
        | r :: _ -> r.Dmx_wal.Log_record.lsn
        | [] -> Alcotest.fail "no records for active txn"
      in
      let stats = Services.checkpoint services in
      Alcotest.(check int) "one active txn" 1 stats.Services.ck_active_txns;
      let wal = services.Services.wal in
      Alcotest.(check bool) "cut below active txn's first LSN" true
        (Wal.base_lsn wal < first_lsn);
      (* more work after the checkpoint, then roll the whole txn back:
         the undo chain spans the checkpoint and must be fully present *)
      ignore (check_ok "ins" (Relation.insert ctx desc (emp 101 "y" "eng" 1)));
      Services.abort services ctx;
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "aborted rows undone" 5 (count_records ctx desc);
      Services.commit services ctx;
      (* with the transaction finished, the next checkpoint truncates past
         where the previous one was pinned *)
      let stats2 = Services.checkpoint services in
      Alcotest.(check bool) "truncation advanced" true
        (stats2.Services.ck_truncated_records > 0
        && Wal.base_lsn wal >= first_lsn);
      Services.close services)

(* restart seeded from a checkpoint taken mid-transaction: the loser's first
   record precedes the checkpoint and is only known from the record's active
   list *)
let test_loser_seeded_from_checkpoint_att () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      ignore (create_emp ctx);
      Services.commit services ctx;
      insert_batch services ~from:0 ~count:3;
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      ignore (check_ok "ins" (Relation.insert ctx desc (emp 50 "x" "eng" 1)));
      ignore (Services.checkpoint services);
      ignore (check_ok "ins" (Relation.insert ctx desc (emp 51 "y" "eng" 1)));
      (* harden the loser's pages and records, then crash without commit *)
      Dmx_wal.Wal.flush services.Services.wal;
      ignore (Dmx_page.Buffer_pool.flush_all services.Services.bp);
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      (match services.Services.last_recovery with
      | None -> Alcotest.fail "no recovery"
      | Some a ->
        Alcotest.(check int) "one loser" 1
          (List.length a.Dmx_wal.Recovery.losers));
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "loser undone, committed intact" 3
        (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

(* A checkpoint appends exactly one record, a Checkpoint listing the active
   transactions and the next txid, and restart's analysis starts at it: the loser is known
   from that list alone, and only the records from it on are scanned. *)
let test_one_record_seeds_restart () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      ignore (create_emp ctx);
      Services.commit services ctx;
      insert_batch services ~from:0 ~count:3;
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      ignore (check_ok "ins" (Relation.insert ctx desc (emp 50 "x" "eng" 1)));
      let wal = services.Services.wal in
      let before = Wal.last_lsn wal in
      let stats = Services.checkpoint ~truncate:false services in
      Alcotest.(check int64) "one record appended" (Int64.succ before)
        (Wal.last_lsn wal);
      Alcotest.(check int64) "it is the checkpoint" stats.Services.ck_lsn
        (Wal.last_lsn wal);
      (match
         (Dmx_wal.Wal.read_all wal).(Dmx_wal.Wal.record_count wal - 1)
           .Dmx_wal.Log_record.kind
       with
      | Dmx_wal.Log_record.Checkpoint { active; next_txid } ->
        Alcotest.(check (list int)) "active list"
          [ ctx.Ctx.txn.Dmx_txn.Txn.id ] active;
        Alcotest.(check int) "next txid" (ctx.Ctx.txn.Dmx_txn.Txn.id + 1)
          next_txid
      | _ -> Alcotest.fail "not a Checkpoint record");
      ignore (check_ok "ins" (Relation.insert ctx desc (emp 51 "y" "eng" 1)));
      Wal.flush wal;
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      (match services.Services.last_recovery with
      | None -> Alcotest.fail "no recovery"
      | Some a ->
        Alcotest.(check int64) "analysis starts at the record"
          stats.Services.ck_lsn a.Dmx_wal.Recovery.restart_lsn;
        Alcotest.(check int) "scan covers the record and the insert after it" 2
          a.Dmx_wal.Recovery.scanned;
        Alcotest.(check (list int)) "loser seeded from the active list"
          [ ctx.Ctx.txn.Dmx_txn.Txn.id ] a.Dmx_wal.Recovery.losers);
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "loser undone, committed intact" 3
        (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

(* The automatic policy fires from the post-commit hook once enough log
   bytes were appended, on a file log and on an in-memory one: both frame
   their records, so both count bytes. *)
let test_auto_policy_bytes () =
  let run what ?dir () =
    let services = fresh_services ?dir () in
    Services.set_checkpoint_policy ~every_bytes:512 services;
    Alcotest.(check int) (what ^ ": policy armed") 512
      (Services.checkpoint_policy services);
    let wal = services.Services.wal in
    let truncations = Wal.truncations wal in
    let ctx = Services.begin_txn services in
    ignore (create_emp ctx);
    Services.commit services ctx;
    for b = 0 to 3 do
      insert_batch services ~from:(10 * b) ~count:5
    done;
    Alcotest.(check bool) (what ^ ": auto checkpoint happened") true
      (Wal.last_checkpoint_lsn wal > 0L);
    Alcotest.(check bool) (what ^ ": auto truncation happened") true
      (Wal.truncations wal > truncations);
    let ctx = Services.begin_txn services in
    let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
    Alcotest.(check int) (what ^ ": rows intact") 20 (count_records ctx desc);
    Services.commit services ctx;
    Services.close services
  in
  with_dir (fun dir -> run "file" ~dir ());
  run "memory" ()

(* A transaction logs inserts, a checkpoint writes their pages, and then
   the transaction rolls back to a savepoint taken before them and commits.
   The Clrs of that rollback lie past the checkpoint, the inserts they undo
   below it. After a crash the store holds the inserts; restart's redo must
   repeat each Clr's undo, reading its target from below the restart point,
   or the rolled-back rows come back. *)
let test_clr_target_below_checkpoint () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      ignore (create_emp ctx);
      Services.commit services ctx;
      insert_batch services ~from:0 ~count:3;
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Services.savepoint ctx "sp";
      for i = 10 to 14 do
        ignore (check_ok "ins" (Relation.insert ctx desc (emp i "gone" "eng" i)))
      done;
      let first_lsn =
        match List.rev ctx.Ctx.txn.Dmx_txn.Txn.chain with
        | r :: _ -> r.Dmx_wal.Log_record.lsn
        | [] -> Alcotest.fail "no records for the active txn"
      in
      let stats = Services.checkpoint services in
      Alcotest.(check bool) "the inserts precede the checkpoint" true
        (first_lsn < stats.Services.ck_lsn);
      Services.rollback_to ctx "sp";
      ignore (check_ok "ins" (Relation.insert ctx desc (emp 20 "kept" "eng" 1)));
      Services.commit services ctx;
      Wal.flush services.Services.wal;
      Services.simulate_crash services;
      let services = fresh_services ~dir () in
      (match services.Services.last_recovery with
      | None -> Alcotest.fail "no recovery"
      | Some a ->
        Alcotest.(check int64) "restart starts at the checkpoint"
          stats.Services.ck_lsn a.Dmx_wal.Recovery.restart_lsn;
        Alcotest.(check (list int)) "no loser" [] a.Dmx_wal.Recovery.losers);
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      let names =
        List.sort compare
          (List.map
             (fun r ->
               match r.(1) with Dmx_value.Value.String s -> s | _ -> "?")
             (all_records ctx desc))
      in
      Alcotest.(check (list string)) "the committed state: rolled-back rows \
                                      stay gone"
        [ "kept"; "w"; "w"; "w" ] names;
      Services.commit services ctx;
      Services.close services)

(* a torn Checkpoint record is treated as absent: restart falls back to the
   previous horizon and committed state is untouched *)
let test_torn_checkpoint_tolerated () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      ignore (create_emp ctx);
      Services.commit services ctx;
      insert_batch services ~from:0 ~count:4;
      (* no truncation, so the Checkpoint record is the last frame in the
         file *)
      ignore (Services.checkpoint ~truncate:false services);
      let torn = Wal.last_checkpoint_lsn services.Services.wal in
      Alcotest.(check bool) "ckpt present" true (torn > 0L);
      (* zero the frame's checksum, which is not 0: its high bytes are, and
         zeroing those alone would tear nothing *)
      Wal.simulate_torn_tail services.Services.wal ~bytes_to_truncate:4;
      Services.simulate_crash services;
      (* the log as restart opens it (restart then checkpoints) *)
      let wal = Wal.open_file (Filename.concat dir "wal.dmx") in
      (* the previous checkpoint is the one the mount took *)
      Alcotest.(check bool) "torn checkpoint treated as absent" true
        (Wal.last_checkpoint_lsn wal < torn);
      Wal.close wal;
      let services = fresh_services ~dir () in
      (match services.Services.last_recovery with
      | None -> Alcotest.fail "no recovery"
      | Some a ->
        Alcotest.(check int64) "analysis falls back to log start" 1L
          a.Dmx_wal.Recovery.restart_lsn);
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "committed rows intact" 4 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

(* a crash during truncation (before the rename) leaves the old log intact *)
let test_crash_before_truncate_rename () =
  with_dir (fun dir ->
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      ignore (create_emp ctx);
      Services.commit services ctx;
      insert_batch services ~from:0 ~count:4;
      let records_before = Wal.record_count services.Services.wal in
      Wal.set_truncate_observer services.Services.wal (function
        | Wal.Trunc_rename -> failwith "injected crash before rename"
        | Wal.Trunc_begin | Wal.Trunc_done -> ());
      (match Services.checkpoint services with
      | _ -> Alcotest.fail "expected injected crash"
      | exception Failure _ -> ());
      Services.simulate_crash services;
      (* the log as restart opens it (restart then checkpoints) *)
      let wal = Wal.open_file (Filename.concat dir "wal.dmx") in
      Alcotest.(check int64) "no truncation took effect" 0L (Wal.base_lsn wal);
      (* the Checkpoint record itself is in the old log (appended and
         flushed before truncation started), so restart still seeds there *)
      Alcotest.(check bool) "checkpoint usable" true
        (Wal.last_checkpoint_lsn wal > 0L);
      Alcotest.(check bool) "history plus checkpoint records" true
        (Wal.record_count wal >= records_before);
      Wal.close wal;
      let services = fresh_services ~dir () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "rows intact" 4 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

(* Under no-force, eviction writes committed pages without a sync. A
   checkpoint that finds no dirty frame must still sync the store before it
   cuts the log below its record, or power loss takes those pages back
   to their pre-images with the records that would redo them gone. *)
let test_checkpoint_syncs_clean_pool () =
  with_dir (fun dir ->
      ignore (Lazy.force registered);
      let fd = Dmx_page.Fault_disk.create () in
      let open_services () =
        Services.setup ~dir ~disk:(Dmx_page.Fault_disk.disk fd)
          ~pool_capacity:128 ()
      in
      let services = open_services () in
      let ctx = Services.begin_txn services in
      ignore (create_emp ctx);
      Services.commit services ctx;
      insert_batch services ~from:0 ~count:4;
      let bp = services.Services.bp in
      List.iter
        (fun (page, _, dirty, _, _) ->
          if dirty then Dmx_page.Buffer_pool.flush_page bp page)
        (Dmx_page.Buffer_pool.frames bp);
      Alcotest.(check int) "no dirty frame left" 0
        (Dmx_page.Buffer_pool.dirty_count bp);
      ignore (Services.checkpoint services);
      Services.simulate_crash services;
      Dmx_page.Fault_disk.crash fd;
      let services = open_services () in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "employee") in
      Alcotest.(check int) "committed rows" 4 (count_records ctx desc);
      Services.commit services ctx;
      Services.close services)

(* DMX_SANITIZE: undo referencing an LSN at/below the truncation point *)
let test_sanitizer_undo_below_base () =
  Invariant.set_enabled_for_testing (Some true);
  Fun.protect
    ~finally:(fun () -> Invariant.set_enabled_for_testing None)
    (fun () ->
      (match
         Invariant.check_undo_above_base ~txid:7 ~lsn:5L ~base:10L
       with
      | () -> Alcotest.fail "expected Invariant_violation"
      | exception Invariant.Invariant_violation _ -> ());
      (* at the boundary: lsn = base is also truncated away *)
      (match
         Invariant.check_undo_above_base ~txid:7 ~lsn:10L ~base:10L
       with
      | () -> Alcotest.fail "expected Invariant_violation at boundary"
      | exception Invariant.Invariant_violation _ -> ());
      Invariant.check_undo_above_base ~txid:7 ~lsn:11L ~base:10L;
      (* untruncated log: everything passes *)
      Invariant.check_undo_above_base ~txid:7 ~lsn:1L ~base:0L)

let suite =
  [
    Alcotest.test_case "checkpoint truncates; restart is bounded" `Quick
      test_truncation_and_bounded_restart;
    Alcotest.test_case "active txn pins the truncation point" `Quick
      test_active_txn_pins_truncation;
    Alcotest.test_case "one Checkpoint record seeds restart" `Quick
      test_one_record_seeds_restart;
    Alcotest.test_case "loser seeded from checkpoint ATT" `Quick
      test_loser_seeded_from_checkpoint_att;
    Alcotest.test_case "auto policy (bytes)" `Quick test_auto_policy_bytes;
    Alcotest.test_case "a Clr whose target precedes the checkpoint is redone"
      `Quick test_clr_target_below_checkpoint;
    Alcotest.test_case "torn Checkpoint tolerated as absent" `Quick
      test_torn_checkpoint_tolerated;
    Alcotest.test_case "crash before truncate rename keeps old log" `Quick
      test_crash_before_truncate_rename;
    Alcotest.test_case "checkpoint syncs pages evicted since the last sync"
      `Quick test_checkpoint_syncs_clean_pool;
    Alcotest.test_case "sanitizer: undo below truncation point" `Quick
      test_sanitizer_undo_below_base;
  ]
