open Dmx_wal
module LR = Log_record

let ext ?(rel = 1) data =
  LR.Ext { source = LR.Smethod 0; rel_id = rel; data }

(* The record at [lsn] in a decode of the retained log. *)
let read w lsn =
  match Recovery.find ~base:(Wal.base_lsn w) (Wal.read_all w) lsn with
  | Some r -> r
  | None -> Alcotest.failf "no record at LSN %Ld" lsn

let fold w ~init ~f = Array.fold_left f init (Wal.read_all w)

let analyze w = Recovery.analyze ~base:(Wal.base_lsn w) (Wal.read_all w)

let test_append_read () =
  let w = Wal.in_memory () in
  let l1 = Wal.append w 1 (ext "op0") in
  let l2 = Wal.append w 1 (ext "op1") in
  let l3 = Wal.append w 2 (ext "op2") in
  Alcotest.(check bool) "lsns ascend" true (l1 < l2 && l2 < l3);
  Alcotest.(check int) "count" 3 (Wal.record_count w);
  let r = read w l2 in
  Alcotest.(check int) "txid" 1 r.LR.txid;
  (match r.kind with
  | LR.Ext { data = "op1"; _ } -> ()
  | _ -> Alcotest.fail "wrong record");
  Alcotest.(check bool) "no record past the end" true
    (Recovery.find ~base:(Wal.base_lsn w) (Wal.read_all w) 99L = None)

(* A transaction carries its own chain, newest first: the records it
   logged and the Clrs of their undos. The chain dies with it. *)
let test_txn_chains () =
  let w = Wal.in_memory () in
  let mgr =
    Dmx_txn.Txn_mgr.create ~wal:w ~locks:(Dmx_lock.Lock_table.create ()) ()
  in
  Dmx_txn.Txn_mgr.set_undo_dispatch mgr (fun _ ~lsn:_ _ -> ());
  let log txn data =
    Dmx_txn.Txn_mgr.log_ext mgr txn ~source:(LR.Smethod 0) ~rel_id:1 ~data
  in
  let t1 = Dmx_txn.Txn_mgr.begin_txn mgr in
  let t2 = Dmx_txn.Txn_mgr.begin_txn mgr in
  ignore (log t1 "a");
  ignore (log t2 "b");
  let m = Dmx_txn.Txn_mgr.mark mgr t1 in
  let l_c = log t1 "c" in
  let chain = t1.Dmx_txn.Txn.chain in
  Alcotest.(check int) "chain length" 2 (List.length chain);
  (* newest first *)
  (match (List.hd chain).LR.kind with
  | LR.Ext { data = "c"; _ } -> ()
  | _ -> Alcotest.fail "chain order");
  Alcotest.(check int) "other chain" 1 (List.length t2.Dmx_txn.Txn.chain);
  (* a rollback pushes the Clr of each undo onto the chain *)
  Dmx_txn.Txn_mgr.rollback_to_mark mgr t1 m;
  (match t1.Dmx_txn.Txn.chain with
  | { LR.kind = LR.Clr { undone }; lsn; _ } :: _ ->
    Alcotest.(check int64) "the Clr compensates c" l_c undone;
    Alcotest.(check int64) "the Clr is the log's newest record" lsn
      (Wal.last_lsn w)
  | _ -> Alcotest.fail "no Clr on the chain");
  Alcotest.(check int) "one record left to undo" 1
    (List.length (Recovery.uncompensated t1.Dmx_txn.Txn.chain));
  Dmx_txn.Txn_mgr.commit mgr t2;
  Alcotest.(check int) "a finished txn's chain is gone" 0
    (List.length t2.Dmx_txn.Txn.chain)

let test_file_roundtrip () =
  let path = Filename.temp_file "dmx_wal" ".log" in
  Sys.remove path;
  let w = Wal.open_file path in
  ignore (Wal.append w 1 (ext "hello"));
  ignore (Wal.append w 1 (LR.Clr { undone = 1L }));
  ignore (Wal.append w 0 (LR.Checkpoint { active = [ 1 ]; next_txid = 2 }));
  ignore (Wal.append w 1 LR.Commit);
  Wal.flush w;
  Wal.close w;
  let w2 = Wal.open_file path in
  Alcotest.(check int) "replayed" 4 (Wal.record_count w2);
  let kinds = fold w2 ~init:[] ~f:(fun acc r -> r.LR.kind :: acc) in
  (match List.rev kinds with
  | [ LR.Ext _; LR.Clr { undone = 1L };
      LR.Checkpoint { active = [ 1 ]; next_txid = 2 }; LR.Commit ] ->
    ()
  | _ -> Alcotest.fail "kinds mismatch");
  Wal.close w2;
  Sys.remove path

let test_unflushed_lost () =
  (* a process kill ([abandon]) and a power loss ([crash]) both keep the
     flushed record and lose the buffered one *)
  List.iter
    (fun (what, stop) ->
      let path = Filename.temp_file "dmx_wal" ".log" in
      Sys.remove path;
      let w = Wal.open_file path in
      ignore (Wal.append w 1 (ext "flushed"));
      Wal.flush w;
      Alcotest.(check int) (what ^ ": flush synced") 0 (Wal.unsynced_bytes w);
      ignore (Wal.append w 1 (ext "never flushed"));
      Alcotest.(check bool) (what ^ ": flushed lags") true
        (Wal.flushed_lsn w < Wal.last_lsn w);
      stop w;
      let w2 = Wal.open_file path in
      Alcotest.(check int) (what ^ ": only the flushed record") 1
        (Wal.record_count w2);
      Wal.close w2;
      Sys.remove path)
    [ ("abandon", Wal.abandon); ("crash", Wal.crash) ]

let test_torn_frame_truncated () =
  let path = Filename.temp_file "dmx_wal" ".log" in
  Sys.remove path;
  let w = Wal.open_file path in
  ignore (Wal.append w 1 (ext "first"));
  ignore (Wal.append w 1 (ext "aaaa"));
  Wal.flush w;
  (* the checksum's high bytes are zeros, and zeroing them tears nothing:
     the tear reaches into the payload *)
  Wal.simulate_torn_tail w ~bytes_to_truncate:5;
  Wal.abandon w;
  let w2 = Wal.open_file path in
  Alcotest.(check int) "torn frame dropped" 1 (Wal.record_count w2);
  (* and the log can keep growing past the truncation *)
  ignore (Wal.append w2 2 (ext "after"));
  Wal.flush w2;
  Wal.close w2;
  let w3 = Wal.open_file path in
  Alcotest.(check int) "appended after truncation" 2 (Wal.record_count w3);
  Wal.close w3;
  Sys.remove path

let test_empty_log () =
  (* Filename.temp_file leaves a zero-length file behind: opening it must
     yield an empty, usable log *)
  let path = Filename.temp_file "dmx_wal_empty" ".log" in
  let w = Wal.open_file path in
  Alcotest.(check int) "no records" 0 (Wal.record_count w);
  ignore (Wal.append w 1 LR.Commit);
  Wal.flush w;
  Wal.close w;
  let w2 = Wal.open_file path in
  Alcotest.(check int) "usable afterwards" 1 (Wal.record_count w2);
  Wal.close w2;
  Sys.remove path

(* The bytes [from, upto) of the file at [path]. *)
let file_bytes path ~from ~upto =
  In_channel.with_open_bin path (fun ic ->
      In_channel.seek ic (Int64.of_int from);
      really_input_string ic (upto - from))

let all_zero s = String.for_all (fun c -> c = '\000') s

let file_length path = (Unix.stat path).Unix.st_size

(* The file is the log's end plus its zero tail, and holds no byte past
   the end that is not a zero. *)
let check_tail what w path =
  let e = Wal.end_offset w and a = Wal.allocated w in
  Alcotest.(check bool) (what ^ ": a tail past the end") true (a > e);
  Alcotest.(check int) (what ^ ": file length is the allocation") a
    (file_length path);
  Alcotest.(check bool) (what ^ ": tail is zeros") true
    (all_zero (file_bytes path ~from:e ~upto:a))

(* Append one record, reopen, and expect [before] records and then it: a
   log that opened at a torn or zeroed end keeps growing from there. *)
let check_appendable what path before =
  let w = Wal.open_file path in
  ignore (Wal.append w 9 (ext "after"));
  Wal.flush w;
  Wal.close w;
  let w = Wal.open_file path in
  Alcotest.(check int) (what ^ ": appended after the end") (before + 1)
    (Wal.record_count w);
  (match (read w (Wal.last_lsn w)).LR.kind with
  | LR.Ext { data = "after"; _ } -> ()
  | _ -> Alcotest.fail (what ^ ": last record is not the appended one"));
  Wal.close w

let test_torn_tail_every_offset () =
  (* Zero the log at every byte offset inside the final frame, the rest of
     the step zero-filled behind it: each tear must drop exactly that frame
     (cut 0 = clean log keeps all three), unless every byte it zeroed was a
     zero already, and the log keeps growing from its end. *)
  let path = Filename.temp_file "dmx_wal_cut" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let build () =
        let w = Wal.open_file path in
        ignore (Wal.append w 1 (ext "first"));
        ignore (Wal.append w 1 (ext "penultimate"));
        ignore (Wal.append w 1 (ext "final-record"));
        Wal.flush w;
        w
      in
      let last_frame =
        let w = Wal.open_file path in
        ignore (Wal.append w 1 (ext "first"));
        ignore (Wal.append w 1 (ext "penultimate"));
        Wal.flush w;
        let prefix = Wal.end_offset w in
        ignore (Wal.append w 1 (ext "final-record"));
        Wal.flush w;
        let full = Wal.end_offset w in
        Wal.close w;
        full - prefix
      in
      Alcotest.(check bool) "a whole frame to tear" true (last_frame > 8);
      for cut = 0 to last_frame do
        Sys.remove path;
        let w = build () in
        let full = Wal.end_offset w in
        let intact = all_zero (file_bytes path ~from:(full - cut) ~upto:full) in
        Wal.simulate_torn_tail w ~bytes_to_truncate:cut;
        Wal.abandon w;
        let w2 = Wal.open_file path in
        let what = Fmt.str "cut %d of %d" cut last_frame in
        let kept = if intact then 3 else 2 in
        Alcotest.(check int) what kept (Wal.record_count w2);
        check_tail what w2 path;
        Wal.close w2;
        check_appendable what path kept
      done)

let test_corrupt_byte_drops_tail () =
  (* One flipped byte mid-log fails that frame's checksum; the frame and
     everything after it are truncated, and the prefix stays appendable. *)
  let path = Filename.temp_file "dmx_wal_flip" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let w = Wal.open_file path in
      ignore (Wal.append w 1 (ext "first"));
      Wal.flush w;
      let first_frame = Wal.end_offset w in
      ignore (Wal.append w 1 (ext "second"));
      ignore (Wal.append w 1 (ext "third"));
      Wal.flush w;
      Wal.abandon w;
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      let off = first_frame + 5 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let w2 = Wal.open_file path in
      Alcotest.(check int) "corrupt frame and tail dropped" 1
        (Wal.record_count w2);
      ignore (Wal.append w2 2 (ext "after"));
      Wal.flush w2;
      Wal.close w2;
      let w3 = Wal.open_file path in
      Alcotest.(check int) "appendable after truncation" 2
        (Wal.record_count w3);
      Wal.close w3)

let test_flush_is_one_write_one_fsync () =
  (* However many records are pending, a flush is one contiguous write plus
     one fsync; an empty flush issues neither syscall. *)
  let path = Filename.temp_file "dmx_wal_syscalls" ".log" in
  Sys.remove path;
  let module Metrics = Dmx_obs.Metrics in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let writes = Metrics.counter "wal.write_syscalls" in
      let fsyncs = Metrics.counter "wal.fsyncs" in
      let w = Wal.open_file path in
      for i = 1 to 100 do
        ignore (Wal.append w 1 (ext (Fmt.str "record-%03d" i)))
      done;
      let w0 = Metrics.value writes and f0 = Metrics.value fsyncs in
      Wal.flush w;
      Alcotest.(check int) "one write for 100 records" 1
        (Metrics.value writes - w0);
      Alcotest.(check int) "one fsync" 1 (Metrics.value fsyncs - f0);
      let w1 = Metrics.value writes and f1 = Metrics.value fsyncs in
      Wal.flush w;
      Alcotest.(check int) "empty flush writes nothing" 0
        (Metrics.value writes - w1);
      Alcotest.(check int) "empty flush syncs nothing" 0
        (Metrics.value fsyncs - f1);
      Wal.close w)

let with_log name f =
  let path = Filename.temp_file name ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let datas w =
  List.rev
    (fold w ~init:[] ~f:(fun acc r ->
         match r.LR.kind with
         | LR.Ext { data; _ } -> data :: acc
         | k -> Fmt.str "%a" LR.pp_kind k :: acc))

(* [bytes] written at offset [pos] of the file at [path]. *)
let overwrite path ~pos bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write_substring fd bytes 0 (String.length bytes));
  Unix.close fd

let test_zero_tail_reopen () =
  (* A closed log is its frames and a tail of zeros. Reopening it replays
     exactly its records and writes nothing, and it keeps growing. *)
  let module Metrics = Dmx_obs.Metrics in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  with_log "dmx_wal_zeros" (fun path ->
      let w = Wal.open_file path in
      check_tail "fresh" w path;
      List.iter (fun d -> ignore (Wal.append w 1 (ext d))) [ "r1"; "r2"; "r3" ];
      Wal.flush w;
      Wal.close w;
      let writes = Metrics.counter "wal.write_syscalls" in
      let w0 = Metrics.value writes in
      let w = Wal.open_file path in
      Alcotest.(check int) "a clean tail is not rewritten" 0
        (Metrics.value writes - w0);
      Alcotest.(check (list string)) "exactly its records" [ "r1"; "r2"; "r3" ]
        (datas w);
      check_tail "reopened" w path;
      Wal.close w;
      check_appendable "zero tail" path 3)

let test_frame_past_torn_one () =
  (* Frames A, B, C and a Commit; zeroing B's checksum ends the log after A,
     with C and the Commit still valid behind it. D has B's frame length,
     so once D fills B's place the scan would go on into C if open had not
     zeroed everything past the end. *)
  with_log "dmx_wal_planted" (fun path ->
      let w = Wal.open_file path in
      ignore (Wal.append w 1 (ext "aaaa"));
      ignore (Wal.append w 1 LR.Commit);
      Wal.flush w;
      ignore (Wal.append w 2 (ext "bbbb"));
      Wal.flush w;
      let b_end = Wal.end_offset w in
      ignore (Wal.append w 2 (ext "cccc"));
      ignore (Wal.append w 2 LR.Commit);
      Wal.close w;
      overwrite path ~pos:(b_end - 4) "\000\000\000\000";
      let w = Wal.open_file path in
      Alcotest.(check (list string)) "the log ends at the torn frame"
        [ "aaaa"; "COMMIT" ] (datas w);
      Alcotest.(check bool) "nothing past the end is left" true
        (all_zero (file_bytes path ~from:(Wal.end_offset w) ~upto:(file_length path)));
      ignore (Wal.append w 3 (ext "dddd"));
      Wal.flush w;
      Alcotest.(check int) "D fills B's place" b_end (Wal.end_offset w);
      Wal.close w;
      let w = Wal.open_file path in
      Alcotest.(check (list string)) "the frames behind it never replay"
        [ "aaaa"; "COMMIT"; "dddd" ] (datas w);
      Wal.close w)

(* A frame as the log writes it: [u32 len][payload][u32 checksum]. *)
let frame payload =
  let n = String.length payload in
  let b = Bytes.create (n + 8) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.set_int32_le b (n + 4)
    (Int32.of_int (String.fold_left (fun n c -> n + Char.code c) 0 payload));
  Bytes.to_string b

let test_zero_length_frame () =
  (* A zero length reads as the end of the log, even with a valid frame
     right behind it. *)
  with_log "dmx_wal_zerolen" (fun path ->
      let w = Wal.open_file path in
      ignore (Wal.append w 1 (ext "aaaa"));
      Wal.flush w;
      let e = Wal.end_offset w in
      Wal.close w;
      let planted =
        let enc = Dmx_value.Codec.Enc.create () in
        LR.encode enc 2 (ext "planted");
        frame (Dmx_value.Codec.Enc.to_string enc)
      in
      overwrite path ~pos:e (String.make 8 '\000' ^ planted);
      let w = Wal.open_file path in
      Alcotest.(check (list string)) "the zero-length frame ends the log"
        [ "aaaa" ] (datas w);
      Alcotest.(check int) "at its offset" e (Wal.end_offset w);
      Wal.close w;
      check_appendable "zero-length frame" path 1)

let test_no_tail_every_offset () =
  (* A log with no zero tail, as every log was written before the file was
     preallocated, cut at every byte offset inside its final frame: it
     opens with exactly the frames that are whole, and gets a tail. *)
  with_log "dmx_wal_notail" (fun path ->
      let build () =
        let w = Wal.open_file path in
        ignore (Wal.append w 1 (ext "first"));
        ignore (Wal.append w 1 (ext "penultimate"));
        Wal.flush w;
        let prefix = Wal.end_offset w in
        ignore (Wal.append w 1 (ext "final-record"));
        Wal.flush w;
        let full = Wal.end_offset w in
        Wal.close w;
        (prefix, full)
      in
      let prefix, full = build () in
      for cut = 0 to full - prefix do
        Sys.remove path;
        ignore (build ());
        Unix.truncate path (full - cut);
        let what = Fmt.str "cut %d of %d" cut (full - prefix) in
        let w = Wal.open_file path in
        let kept = if cut = 0 then 3 else 2 in
        Alcotest.(check int) what kept (Wal.record_count w);
        check_tail what w path;
        Wal.close w;
        check_appendable what path kept
      done)

let test_every_fsync_counted () =
  (* Opening a fresh log zero-fills its first step: one sync. A flush that
     crosses the tail syncs the next step, then its frames: two. The
     truncation rewrite syncs its temp file once. *)
  let module Metrics = Dmx_obs.Metrics in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  with_log "dmx_wal_fsyncs" (fun path ->
      let fsyncs = Metrics.counter "wal.fsyncs" in
      let delta f =
        let f0 = Metrics.value fsyncs in
        let r = f () in
        (Metrics.value fsyncs - f0, r)
      in
      let n, w = delta (fun () -> Wal.open_file path) in
      Alcotest.(check int) "open syncs the fresh tail once" 1 n;
      let step = Wal.allocated w in
      for i = 1 to 3 do
        ignore (Wal.append w 1 (ext (String.make 400_000 (Char.chr (96 + i)))))
      done;
      let n, () = delta (fun () -> Wal.flush w) in
      Alcotest.(check int) "a flush past the tail: two syncs" 2 n;
      Alcotest.(check int) "the tail grew by one step" (2 * step)
        (Wal.allocated w);
      check_tail "grown" w path;
      ignore (Wal.append w 1 LR.Commit);
      let n, () = delta (fun () -> Wal.flush w) in
      Alcotest.(check int) "a flush inside the tail: one sync" 1 n;
      let n, _ = delta (fun () -> Wal.truncate_before w 4L) in
      Alcotest.(check int) "truncation syncs its rewrite once" 1 n;
      check_tail "truncated" w path;
      Wal.close w)

(* A catalog snapshot and a log truncation each replace a file durably: one
   counted fsync of the file, then the rename, then one counted fsync of
   its directory. *)
let test_durable_replace_counted () =
  let module Metrics = Dmx_obs.Metrics in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  Test_util.with_temp_dir ~prefix:"dmx_durable" (fun dir ->
      let counters = [ "wal.fsyncs"; "catalog.fsyncs"; "durable.dir_fsyncs" ] in
      let delta f =
        let values () =
          List.map (fun c -> Metrics.value (Metrics.counter c)) counters
        in
        let v0 = values () in
        f ();
        List.map2 ( - ) (values ()) v0
      in
      let catalog =
        Dmx_catalog.Catalog.create ~path:(Filename.concat dir "catalog.dmx") ()
      in
      Alcotest.(check (list int)) "a snapshot: file and directory" [ 0; 1; 1 ]
        (delta (fun () -> Dmx_catalog.Catalog.save catalog));
      let w = Wal.open_file (Filename.concat dir "wal.dmx") in
      for _ = 1 to 3 do
        ignore (Wal.append w 1 (ext "x"))
      done;
      Wal.flush w;
      Alcotest.(check (list int)) "a truncation: file and directory" [ 1; 0; 1 ]
        (delta (fun () -> ignore (Wal.truncate_before w 3L)));
      Alcotest.(check bool) "no temp file left" false
        (Sys.file_exists (Filename.concat dir "wal.dmx.tmp")
        || Sys.file_exists (Filename.concat dir "catalog.dmx.tmp"));
      Wal.close w)

(* Restart decodes each retained frame once: the open's walk finds the end,
   and the first [read_all] hands back what it decoded. A later read
   decodes the file again. *)
let test_restart_decodes_once () =
  let module Metrics = Dmx_obs.Metrics in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let decoded = Metrics.counter "wal.decoded_frames" in
  let delta f =
    let d0 = Metrics.value decoded in
    let r = f () in
    (Metrics.value decoded - d0, r)
  in
  with_log "dmx_wal_decodes" (fun path ->
      let w = Wal.open_file path in
      for i = 1 to 40 do
        ignore (Wal.append w (i mod 3) (ext (string_of_int i)))
      done;
      Wal.flush w;
      Wal.close w;
      let n, w = delta (fun () -> Wal.open_file path) in
      Alcotest.(check int) "open decodes every frame" 40 n;
      let n, log = delta (fun () -> Wal.read_all w) in
      Alcotest.(check int) "the first read decodes nothing" 0 n;
      Alcotest.(check int) "and returns every record" 40 (Array.length log);
      Alcotest.(check int64) "numbered from the base" 40L log.(39).LR.lsn;
      let n, again = delta (fun () -> Wal.read_all w) in
      Alcotest.(check int) "a second read decodes again" 40 n;
      Alcotest.(check bool) "the same records" true (again = log);
      Wal.close w);
  (* end to end: one restart over a crashed log *)
  Test_util.with_temp_dir ~prefix:"dmx_restart_decodes" (fun dir ->
      let services = Test_util.fresh_services ~dir () in
      let ctx = Dmx_core.Services.begin_txn services in
      let desc =
        Test_util.check_ok "create"
          (Dmx_ddl.Ddl.create_relation ctx ~name:"t"
             ~schema:Test_util.emp_schema ~storage_method:"heap" ())
      in
      for i = 1 to 20 do
        ignore
          (Test_util.check_ok "ins"
             (Dmx_core.Relation.insert ctx desc (Test_util.emp i "a" "d" i)))
      done;
      Dmx_core.Services.commit services ctx;
      let retained = Wal.record_count services.Dmx_core.Services.wal in
      Dmx_core.Services.simulate_crash services;
      let n, services = delta (fun () -> Test_util.fresh_services ~dir ()) in
      Alcotest.(check int) "restart decodes each retained frame once" retained n;
      Dmx_core.Services.close services)

let test_recovery_analysis () =
  let w = Wal.in_memory () in
  (* tx1 commits, tx2 aborts cleanly, tx3 is a loser, tx4 crashed mid-abort *)
  ignore (Wal.append w 1 (ext "1a"));
  ignore (Wal.append w 1 LR.Commit);
  let lsn_2a = Wal.append w 2 (ext "2a") in
  ignore (Wal.append w 2 (LR.Clr { undone = lsn_2a }));
  ignore (Wal.append w 2 LR.Abort);
  ignore (Wal.append w 3 (ext "3a"));
  ignore (Wal.append w 3 (ext "3b"));
  ignore (Wal.append w 4 (ext "4a"));
  ignore (Wal.append w 4 (ext "4b"));
  (* crash interrupted tx4's rollback after undoing 4b *)
  let lsn_4b = Wal.last_lsn w in
  ignore (Wal.append w 4 (LR.Clr { undone = lsn_4b }));
  let a = analyze w in
  Alcotest.(check (list int)) "winners" [ 1 ] a.Recovery.winners;
  Alcotest.(check (list int)) "losers" [ 3; 4 ] (List.sort compare a.losers);
  let work_of tx =
    List.assoc tx a.undo_work
    |> List.map (fun (r : LR.t) ->
           match r.kind with LR.Ext { data; _ } -> data | _ -> "?")
  in
  Alcotest.(check (list string)) "tx3 undo newest-first" [ "3b"; "3a" ]
    (work_of 3);
  (* 4b already has a Clr: restart's redo pass repeats that undo, so the
     undo pass skips it *)
  Alcotest.(check (list string)) "tx4 skips compensated records"
    [ "4a" ] (work_of 4)

let test_analysis_fully_compensated () =
  (* a loser whose every Ext was already undone by Clrs before the crash:
     still a loser, but with nothing left to undo — restart's redo pass
     repeats the undo each Clr records *)
  let w = Wal.in_memory () in
  let l_a = Wal.append w 1 (ext "a") in
  let l_b = Wal.append w 1 (ext "b") in
  ignore (Wal.append w 1 (LR.Clr { undone = l_b }));
  ignore (Wal.append w 1 (LR.Clr { undone = l_a }));
  let a = analyze w in
  Alcotest.(check (list int)) "still a loser" [ 1 ] a.Recovery.losers;
  Alcotest.(check int) "compensated records are not undone again" 0
    (List.length (List.assoc 1 a.undo_work))

let test_analysis_interleaved () =
  (* winners and losers interleaved record-by-record: classification and the
     per-loser worklists must not bleed across transactions *)
  let w = Wal.in_memory () in
  ignore (Wal.append w 1 (ext "1a"));
  ignore (Wal.append w 2 (ext "2a"));
  ignore (Wal.append w 1 (ext "1b"));
  ignore (Wal.append w 1 LR.Commit);
  ignore (Wal.append w 3 (ext "3a"));
  ignore (Wal.append w 2 (ext "2b"));
  ignore (Wal.append w 3 LR.Commit);
  let a = analyze w in
  Alcotest.(check (list int)) "winners" [ 1; 3 ]
    (List.sort compare a.Recovery.winners);
  Alcotest.(check (list int)) "losers" [ 2 ] a.losers;
  let work =
    List.assoc 2 a.undo_work
    |> List.map (fun (r : LR.t) ->
           match r.kind with LR.Ext { data; _ } -> data | _ -> "?")
  in
  Alcotest.(check (list string)) "only tx2's records, newest first"
    [ "2b"; "2a" ] work

let test_analysis_no_record_no_loser () =
  (* a transaction enters the log with its first change: one that logged
     nothing (txn 2, between a winner and a loser) is in no list, and a
     checkpoint taken while it ran does not name it *)
  let w = Wal.in_memory () in
  ignore (Wal.append w 1 (ext "1a"));
  ignore (Wal.append w 1 LR.Commit);
  ignore (Wal.append w 3 (ext "3a"));
  ignore (Wal.append w 0 (LR.Checkpoint { active = [ 3 ]; next_txid = 4 }));
  let a = analyze w in
  Alcotest.(check (list int)) "winners" [] a.Recovery.winners;
  Alcotest.(check (list int)) "only the logged loser" [ 3 ] a.losers;
  Alcotest.(check (list int)) "undo work only for it" [ 3 ]
    (List.map fst a.undo_work);
  Alcotest.(check int) "next txid from the checkpoint" 4 (Wal.next_txid w)

let test_log_record_codec () =
  let roundtrip kind =
    let e = Dmx_value.Codec.Enc.create () in
    LR.encode e 7 kind;
    let txid, kind' =
      LR.decode (Dmx_value.Codec.Dec.of_string (Dmx_value.Codec.Enc.to_string e))
    in
    Alcotest.(check int) "txid" 7 txid;
    Alcotest.(check bool) (Fmt.str "%a" LR.pp_kind kind) true (kind = kind')
  in
  roundtrip LR.Commit;
  roundtrip LR.Abort;
  roundtrip (ext "payload \000 with nul");
  roundtrip (LR.Ext { source = LR.Attachment 3; rel_id = 9; data = "" });
  roundtrip (LR.Ext { source = LR.Catalog; rel_id = 0; data = "c" });
  roundtrip (LR.Clr { undone = 123456789L });
  roundtrip (LR.Checkpoint { active = []; next_txid = 1 });
  roundtrip
    (LR.Checkpoint { active = [ 3; 8; 100_000 ]; next_txid = 100_001 })

(* Property: a Checkpoint with any active list and next txid survives the
   codec unchanged. *)
let prop_checkpoint_roundtrip =
  let open QCheck in
  Test.make ~name:"checkpoint codec roundtrips any list" ~count:100
    (pair (small_list small_nat) small_nat)
    (fun (active, next_txid) ->
      let kind = LR.Checkpoint { active; next_txid } in
      let e = Dmx_value.Codec.Enc.create () in
      LR.encode e 0 kind;
      let txid, kind' =
        LR.decode
          (Dmx_value.Codec.Dec.of_string (Dmx_value.Codec.Enc.to_string e))
      in
      txid = 0 && kind = kind')

(* ---- log truncation ---- *)

let test_truncate_before_mem () =
  let w = Wal.in_memory () in
  ignore (Wal.append w 1 (ext "a0"));
  ignore (Wal.append w 1 (ext "a"));
  ignore (Wal.append w 1 LR.Commit);
  ignore (Wal.append w 2 (ext "b0"));
  let l_b = Wal.append w 2 (ext "b") in
  let dropped, _ = Wal.truncate_before w 4L in
  Alcotest.(check int) "three dropped" 3 dropped;
  Alcotest.(check int64) "base advanced" 3L (Wal.base_lsn w);
  Alcotest.(check int) "two retained" 2 (Wal.record_count w);
  (* surviving LSNs are stable *)
  (match (read w l_b).LR.kind with
  | LR.Ext { data = "b"; _ } -> ()
  | _ -> Alcotest.fail "surviving record moved");
  Alcotest.(check bool) "no record below the base" true
    (Recovery.find ~base:(Wal.base_lsn w) (Wal.read_all w) 2L = None);
  (* the sequence keeps counting from where it was *)
  Alcotest.(check int64) "lsns keep ascending" 6L (Wal.append w 2 LR.Commit);
  (* the memory log keeps its frames' suffix: the retained records and the
     new one decode in order *)
  Alcotest.(check (list int64)) "retained frames decode" [ 4L; 5L; 6L ]
    (Array.to_list (Array.map (fun (r : LR.t) -> r.lsn) (Wal.read_all w)));
  (* a cut at or below the base is a no-op, not an error *)
  let dropped, freed = Wal.truncate_before w 2L in
  Alcotest.(check int) "below-base cut drops nothing" 0 dropped;
  Alcotest.(check int) "and frees nothing" 0 freed

let test_truncate_before_file_reopen () =
  let path = Filename.temp_file "dmx_wal_trunc" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let w = Wal.open_file path in
      (* the dropped records outgrow the first step, so the file has one
         to give back *)
      ignore (Wal.append w 1 (ext (String.make 600_000 'o')));
      ignore (Wal.append w 1 (ext (String.make 600_000 'O')));
      ignore (Wal.append w 1 LR.Commit);
      ignore (Wal.append w 2 (ext "kept-first"));
      ignore (Wal.append w 2 (ext "kept"));
      Wal.flush w;
      let end_before = Wal.end_offset w and alloc_before = Wal.allocated w in
      check_tail "before truncation" w path;
      let dropped, freed = Wal.truncate_before w 4L in
      Alcotest.(check int) "three dropped" 3 dropped;
      Alcotest.(check bool) "bytes freed" true (freed > 0);
      Alcotest.(check bool) "logical end shrank" true
        (Wal.end_offset w < end_before);
      Alcotest.(check bool) "allocation shrank" true
        (Wal.allocated w < alloc_before);
      check_tail "after truncation" w path;
      Wal.close w;
      let w2 = Wal.open_file path in
      Alcotest.(check int64) "base survives reopen" 3L (Wal.base_lsn w2);
      Alcotest.(check int) "retained records replayed" 2 (Wal.record_count w2);
      Alcotest.(check int64) "last lsn preserved" 5L (Wal.last_lsn w2);
      (match (read w2 5L).LR.kind with
      | LR.Ext { data = "kept"; _ } -> ()
      | _ -> Alcotest.fail "retained record corrupted");
      ignore (Wal.append w2 2 LR.Commit);
      Wal.flush w2;
      Wal.close w2;
      let w3 = Wal.open_file path in
      Alcotest.(check int) "appendable after truncate+reopen" 3
        (Wal.record_count w3);
      Wal.close w3)

let test_truncate_folds_pending () =
  (* records still sitting in the flush buffer are folded into the rewrite:
     truncation never weakens durability, even for bytes the caller had not
     flushed yet *)
  let path = Filename.temp_file "dmx_wal_fold" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let w = Wal.open_file path in
      ignore (Wal.append w 1 (ext "flushed"));
      ignore (Wal.append w 1 LR.Commit);
      Wal.flush w;
      ignore (Wal.append w 2 (ext "pending-first"));
      ignore (Wal.append w 2 (ext "pending"));
      Alcotest.(check bool) "records pending" true (Wal.pending_records w > 0);
      ignore (Wal.truncate_before w 3L);
      Alcotest.(check int) "rewrite consumed the buffer" 0
        (Wal.pending_records w);
      (* process kill right after: buffered records would normally be lost *)
      Wal.abandon w;
      let w2 = Wal.open_file path in
      Alcotest.(check int64) "base" 2L (Wal.base_lsn w2);
      Alcotest.(check int) "pending records survived via the rewrite" 2
        (Wal.record_count w2);
      (match (read w2 4L).LR.kind with
      | LR.Ext { data = "pending"; _ } -> ()
      | _ -> Alcotest.fail "folded record corrupted");
      Wal.close w2)

let test_torn_checkpoint_every_offset () =
  (* Cut the log at every byte offset inside a final Checkpoint frame: each
     cut must drop exactly that frame, and a torn checkpoint must read back
     as "no checkpoint" (restart falls back to the previous seed). *)
  let path = Filename.temp_file "dmx_wal_ckcut" ".log" in
  Sys.remove path;
  let ck = LR.Checkpoint { active = [ 1 ]; next_txid = 2 } in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let build () =
        let w = Wal.open_file path in
        ignore (Wal.append w 1 (ext "first"));
        ignore (Wal.append w 1 (ext "work"));
        ignore (Wal.append w 0 ck);
        Wal.flush w;
        w
      in
      let last_frame =
        let w = Wal.open_file path in
        ignore (Wal.append w 1 (ext "first"));
        ignore (Wal.append w 1 (ext "work"));
        Wal.flush w;
        let prefix = Wal.end_offset w in
        ignore (Wal.append w 0 ck);
        Wal.flush w;
        let full = Wal.end_offset w in
        Wal.close w;
        full - prefix
      in
      Alcotest.(check bool) "a whole frame to tear" true (last_frame > 8);
      for cut = 0 to last_frame do
        Sys.remove path;
        let w = build () in
        let full = Wal.end_offset w in
        (* zeroing bytes that were zeros tears nothing *)
        let intact =
          all_zero (file_bytes path ~from:(full - cut) ~upto:full)
        in
        Wal.simulate_torn_tail w ~bytes_to_truncate:cut;
        Wal.abandon w;
        let w2 = Wal.open_file path in
        Alcotest.(check int)
          (Fmt.str "cut %d of %d" cut last_frame)
          (if intact then 3 else 2)
          (Wal.record_count w2);
        Alcotest.(check int64)
          (Fmt.str "ckpt visibility at cut %d" cut)
          (if intact then 3L else 0L)
          (Wal.last_checkpoint_lsn w2);
        Wal.close w2
      done)

let test_analysis_seeded_from_ckpt () =
  (* txn 1 commits before the checkpoint (not rescanned), txn 2 is on the
     checkpoint's active list and never finishes (a loser whose undo work
     reaches below the scan window), txn 3 begins and commits after it *)
  let w = Wal.in_memory () in
  ignore (Wal.append w 1 (ext "1a"));
  ignore (Wal.append w 1 LR.Commit);
  ignore (Wal.append w 2 (ext "2a"));
  let ck =
    Wal.append w 0 (LR.Checkpoint { active = [ 2 ]; next_txid = 3 })
  in
  ignore (Wal.append w 3 (ext "3a"));
  ignore (Wal.append w 3 LR.Commit);
  ignore (Wal.append w 2 (ext "2b"));
  let a = analyze w in
  Alcotest.(check int64) "restart seeds at the Checkpoint record" ck
    a.Recovery.restart_lsn;
  Alcotest.(check int) "only the tail rescanned" 4 a.Recovery.scanned;
  Alcotest.(check (list int)) "commit after the checkpoint is a winner" [ 3 ]
    a.Recovery.winners;
  Alcotest.(check (list int)) "active list seeds the loser" [ 2 ]
    a.Recovery.losers;
  let work =
    List.assoc 2 a.Recovery.undo_work
    |> List.map (fun (r : LR.t) ->
           match r.kind with LR.Ext { data; _ } -> data | _ -> "?")
  in
  Alcotest.(check (list string))
    "undo work reaches below the scan window, newest first" [ "2b"; "2a" ]
    work

(* A log in an older format holds frames this one cannot decode, and a
   file without the header is not a log at all. Opening either must fail
   and leave the file byte for byte alone: replaying an old log would cut
   it at the first such frame, and opening a file that is not a log as a
   fresh one would write a header over it and zero the rest. *)
let refused contents () =
  let path = Filename.temp_file "dmx_wal_old" ".log" in
  let tmp = path ^ ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      close_out (open_out_bin tmp);
      let read_all () = In_channel.with_open_bin path In_channel.input_all in
      let before = read_all () in
      (match Wal.open_file path with
      | w ->
        Wal.abandon w;
        Alcotest.fail "the file opened as a log"
      | exception Sys_error msg ->
        Alcotest.(check bool) "message names the file" true
          (String.length msg >= String.length path
          && String.sub msg 0 (String.length path) = path));
      Alcotest.(check bool) "file byte-identical" true (read_all () = before);
      Alcotest.(check bool) "a .tmp beside it left alone" true
        (Sys.file_exists tmp))

(* [payload] is a checksum-valid frame the old format wrote. *)
let old_format_refused magic payload =
  refused (magic ^ String.make 8 '\000' ^ frame payload)

let text_file =
  String.concat ""
    (List.init 100 (fun i ->
         Fmt.str "line %03d: this file holds text, not log frames\n" i))

(* Property: any torn tail leaves a readable prefix of the log. *)
let prop_torn_tail_prefix =
  QCheck.Test.make ~name:"any torn tail yields a clean prefix" ~count:40
    QCheck.(pair (int_range 1 20) (int_range 0 400))
    (fun (n_records, cut) ->
      let path =
        Filename.temp_file
          (Fmt.str "dmx_torn_%d" (Unix.getpid ()))
          ".log"
      in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let w = Wal.open_file path in
          for i = 1 to n_records do
            ignore (Wal.append w 1 (ext (Fmt.str "op%03d" i)))
          done;
          Wal.flush w;
          Wal.simulate_torn_tail w ~bytes_to_truncate:cut;
          Wal.abandon w;
          let w2 = Wal.open_file path in
          let count = Wal.record_count w2 in
          (* a prefix: 0..n records, and every surviving record intact and
             in order *)
          let good = ref (count <= n_records) in
          let i = ref 0 in
          Array.iter
            (fun (r : LR.t) ->
              incr i;
              match r.kind with
              | LR.Ext { data; _ } ->
                if data <> Fmt.str "op%03d" !i then good := false
              | _ -> good := false)
            (Wal.read_all w2);
          Wal.close w2;
          !good))

(* The log keeps no decoded record: its memory is the frames not yet
   flushed. Appending 19,000 more Ext + Commit pairs to a file log, flushing
   as it goes, must leave its reachable size within 64 KB. *)
let test_memory_flat () =
  with_log "dmx_wal_flat" (fun path ->
      let w = Wal.open_file path in
      let pairs n =
        for i = 1 to n do
          ignore (Wal.append w i (ext (String.make 58 'x')));
          ignore (Wal.append w i LR.Commit);
          if i mod 100 = 0 then Wal.flush w
        done;
        Wal.flush w
      in
      let bytes () = Obj.reachable_words (Obj.repr w) * (Sys.word_size / 8) in
      pairs 1_000;
      let at_1k = bytes () in
      pairs 19_000;
      let at_20k = bytes () in
      Wal.close w;
      Alcotest.(check bool)
        (Fmt.str "grew by %d bytes from 1,000 to 20,000 pairs (bound 64 KB)"
           (at_20k - at_1k))
        true
        (at_20k - at_1k < 65_536))

let suite =
  [
    Alcotest.test_case "append and read" `Quick test_append_read;
    QCheck_alcotest.to_alcotest prop_torn_tail_prefix;
    Alcotest.test_case "per-transaction chains" `Quick test_txn_chains;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "unflushed records lost on crash" `Quick
      test_unflushed_lost;
    Alcotest.test_case "torn frame truncated" `Quick test_torn_frame_truncated;
    Alcotest.test_case "empty log opens clean" `Quick test_empty_log;
    Alcotest.test_case "torn tail at every offset of the last frame" `Quick
      test_torn_tail_every_offset;
    Alcotest.test_case "corrupt byte drops the tail" `Quick
      test_corrupt_byte_drops_tail;
    Alcotest.test_case "flush is one write + one fsync" `Quick
      test_flush_is_one_write_one_fsync;
    Alcotest.test_case "a zero tail reopens with exactly its records" `Quick
      test_zero_tail_reopen;
    Alcotest.test_case "a frame past a torn one never replays" `Quick
      test_frame_past_torn_one;
    Alcotest.test_case "a zero-length frame ends the log" `Quick
      test_zero_length_frame;
    Alcotest.test_case "a log with no tail opens and gets one" `Quick
      test_no_tail_every_offset;
    Alcotest.test_case "every log fsync is counted" `Quick
      test_every_fsync_counted;
    Alcotest.test_case "a durable replace fsyncs file and directory" `Quick
      test_durable_replace_counted;
    Alcotest.test_case "restart decodes each frame once" `Quick
      test_restart_decodes_once;
    Alcotest.test_case "recovery analysis" `Quick test_recovery_analysis;
    Alcotest.test_case "analysis: fully compensated loser" `Quick
      test_analysis_fully_compensated;
    Alcotest.test_case "analysis: interleaved winners and losers" `Quick
      test_analysis_interleaved;
    Alcotest.test_case "analysis: no record, no loser" `Quick
      test_analysis_no_record_no_loser;
    Alcotest.test_case "log record codec" `Quick test_log_record_codec;
    QCheck_alcotest.to_alcotest prop_checkpoint_roundtrip;
    Alcotest.test_case "truncate_before (memory)" `Quick
      test_truncate_before_mem;
    Alcotest.test_case "truncate_before survives reopen (file)" `Quick
      test_truncate_before_file_reopen;
    Alcotest.test_case "truncation folds pending records" `Quick
      test_truncate_folds_pending;
    Alcotest.test_case "torn Checkpoint frame: no checkpoint" `Quick
      test_torn_checkpoint_every_offset;
    Alcotest.test_case "analysis seeded from checkpoint" `Quick
      test_analysis_seeded_from_ckpt;
    (* a frame holding a kind tag (7) this format lacks *)
    Alcotest.test_case "a DMXWAL01 log is refused, not truncated" `Quick
      (old_format_refused "DMXWAL01" "\001\007");
    (* a Begin frame of txid 1: kind tag 0, which this format lacks *)
    Alcotest.test_case "a DMXWAL02 log is refused, not truncated" `Quick
      (old_format_refused "DMXWAL02" "\001\000");
    Alcotest.test_case "a file that is not a log is refused, not overwritten"
      `Quick (refused text_file);
    Alcotest.test_case "the log's memory stays flat as it grows" `Quick
      test_memory_flat;
  ]
