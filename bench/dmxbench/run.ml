(* Running one workload: set-up, warm-up, the measured phase, crash/restart
   cycles, and the metrics they yield. *)

open Util
open Workloads
module Disk = Dmx_page.Disk

type limit = Ops of int | Seconds of float

type config = {
  seed : int;
  scale : float;
  seconds : float option;  (* time box of the measured phase *)
  traced : bool;
  root : string;  (* scratch directory of this process *)
}

let setup_rounds = 3
let restart_cycles = 5

(* Traced runs alternate chunks of operations with span recording off and
   on, so the overhead ratio compares like with like as the database
   evolves. The chunk is a multiple of the scan shapes' period, and the
   vetoed batches (every 40th) fall on both sides. *)
let trace_chunk = 6

let scaled_ops n scale = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

let open_db cfg spec dir =
  mkdir_p dir;
  let disk =
    if cfg.traced then Some (Ledger.open_disk (Filename.concat dir "pages.dmx"))
    else None
  in
  let db = Db.open_database ~dir ?disk ~pool_capacity:spec.pool () in
  Services.set_checkpoint_policy ~every_bytes:spec.ckpt_bytes db.services;
  db

type phase = {
  ops : int;
  rate : float;  (* better quartile of the per-window operations per second *)
  counts : Counters.t;
  flush_p50 : float;
  gc_minor : float;
  gc_major : int;
  on_ops : int;  (* traced runs: operations with recording on / off *)
  on_ns : int;
  off_ops : int;
  off_ns : int;
  layers : (string * (int * int * int)) list;  (* name -> calls, self ns, vetoes *)
  disk : int * int * int;  (* page-store reads, writes, syncs (traced) *)
}

let layer_names =
  [ "db"; "smethod.heap"; "smethod.btree"; "attach.btree_index";
    "attach.hash_index"; "attach.agg"; "attach.stats"; "attach.check";
    "page.disk" ]

let layer_snapshot () =
  List.map
    (fun n ->
      match Ledger.find n with
      | Some l -> (n, (l.calls, l.self_ns, l.vetoes))
      | None -> (n, (0, 0, 0)))
    layer_names

let disk_snapshot () = (!Ledger.disk_reads, !Ledger.disk_writes, !Ledger.disk_syncs)

let measure cfg inst db ~first ~limit =
  let t = !tally in
  let before = Counters.snapshot db in
  let flush0 = Counters.flush_counts () in
  let gc0 = Gc.quick_stat () in
  let layers0 = layer_snapshot () in
  let r0, w0, s0 = disk_snapshot () in
  let on_ops = ref 0 and on_ns = ref 0 and off_ops = ref 0 and off_ns = ref 0 in
  measuring := true;
  (* a short fixed run still gets operations on both sides *)
  let chunk =
    match limit with
    | Ops n -> max 1 (min trace_chunk (n / 2))
    | Seconds _ -> trace_chunk
  in
  let win_ops = Array.make windows 0 and win_ns = Array.make windows 0 in
  let start = now_ns () in
  let i = ref first in
  let continue () =
    match limit with
    | Ops n -> !i < first + n
    | Seconds s -> secs_since start < s
  in
  while continue () do
    if cfg.traced then Ledger.set_recording ((!i - first) / chunk mod 2 = 1);
    Ledger.op := !i;
    let t0 = now_ns () in
    let w =
      match limit with
      | Ops n -> (!i - first) * windows / n
      | Seconds s ->
        int_of_float (float_of_int (t0 - start) /. 1e9 /. s *. float_of_int windows)
    in
    let w = min (windows - 1) w in
    t.window <- w;
    attempt (fun () -> inst.op db !i);
    let dt = now_ns () - t0 in
    Samples.add t.op_lat.(w) (float_of_int dt /. 1e3);
    win_ops.(w) <- win_ops.(w) + 1;
    win_ns.(w) <- win_ns.(w) + dt;
    if !Ledger.recording then begin
      incr on_ops;
      on_ns := !on_ns + dt
    end
    else begin
      incr off_ops;
      off_ns := !off_ns + dt
    end;
    incr i
  done;
  Ledger.set_recording false;
  measuring := false;
  let gc1 = Gc.quick_stat () in
  let layers =
    List.map2
      (fun (n, (c0, s0, v0)) (_, (c1, s1, v1)) ->
        if c1 < c0 || v1 < v0 then fail "ledger: %s went backwards" n;
        (n, (c1 - c0, s1 - s0, v1 - v0)))
      layers0 (layer_snapshot ())
  in
  let r1, w1, s1 = disk_snapshot () in
  {
    ops = !i - first;
    rate =
      better_quartile ~higher:true
        (List.filter_map
           (fun w ->
             if win_ops.(w) = 0 then None
             else Some (float_of_int win_ops.(w) *. 1e9 /. float_of_int win_ns.(w)))
           (List.init windows Fun.id));
    counts = Counters.diff ~before ~after:(Counters.snapshot db);
    flush_p50 = Counters.flush_p50 ~before:flush0 ~after:(Counters.flush_counts ());
    gc_minor = gc1.minor_words -. gc0.minor_words;
    gc_major = gc1.major_collections - gc0.major_collections;
    on_ops = !on_ops;
    on_ns = !on_ns;
    off_ops = !off_ops;
    off_ns = !off_ns;
    layers;
    disk = (r1 - r0, w1 - w0, s1 - s0);
  }

(* Records handed across the storage-method / access-path interface per
   result row, from one explain analyze per query shape. *)
let rows_examined db inst =
  let examined = ref 0 and returned = ref 0 in
  unit_txn db (fun ctx ->
      List.iter
        (fun (q, params) ->
          let rows, st =
            expect "explain analyze" (Db.explain_analyze db ctx q ~params ())
          in
          let rec walk (s : Dmx_query.Executor.op_stats) =
            examined := !examined + s.os_direct + s.os_seq;
            List.iter walk s.os_children
          in
          walk st;
          returned := !returned + List.length rows)
        inst.shapes);
  float_of_int !examined /. float_of_int (max 1 !returned)

let metric name unit_ ?(n = 0) value = { Report.name; value; unit_; n }

(* Better quartile over the windows of each window's [q]-percentile; [n]
   counts every sample. *)
let latency name (ws : Samples.t array) q =
  let sorted =
    List.filter (fun a -> Array.length a > 0) (List.map Samples.sorted (Array.to_list ws))
  in
  metric name "us"
    ~n:(List.fold_left (fun a s -> a + Array.length s) 0 sorted)
    (better_quartile ~higher:false (List.map (fun s -> percentile s q) sorted))

let run cfg spec =
  tally := new_tally ();
  let t = !tally in
  (* set-up: create + load, several times into fresh directories *)
  let setup_times = ref [] in
  let kept = ref None in
  for k = 1 to setup_rounds do
    let dir = Filename.concat cfg.root (Printf.sprintf "%s-%d" spec.name k) in
    let inst = spec.make ~seed:cfg.seed ~scale:cfg.scale in
    let t0 = now_ns () in
    let db = open_db cfg spec dir in
    inst.load db;
    (* a loaded database starts from a checkpoint, with its load log cut *)
    ignore (Services.checkpoint db.services);
    setup_times := secs_since t0 :: !setup_times;
    if k < setup_rounds then begin
      Db.close db;
      rm_rf dir
    end
    else kept := Some (dir, inst, db)
  done;
  let dir, inst, db =
    match !kept with Some k -> k | None -> fail "no set-up kept"
  in
  let warm = scaled_ops spec.warmup cfg.scale in
  for i = 0 to warm - 1 do
    attempt (fun () -> inst.op db i)
  done;
  let limit =
    match cfg.seconds with
    | Some s -> Seconds s
    | None -> Ops (scaled_ops spec.ops cfg.scale)
  in
  (* space is taken at a point every run reaches after the same work *)
  let space_amp =
    let disk = db.services.disk in
    float_of_int (Disk.page_count disk * Disk.page_size disk)
    /. float_of_int (max 1 (inst.live_bytes ()))
  in
  let ph = measure cfg inst db ~first:warm ~limit in
  let examined = if cfg.traced then rows_examined db inst else 0. in
  let pages = Disk.page_count db.services.disk in
  (* crash/restart cycles: checkpoint, committed work, one transaction left
     in flight and made durable by a second checkpoint, crash, timed reopen
     (which must undo the in-flight work), audit *)
  let db = ref db in
  let next = ref (warm + ph.ops) in
  let restarts = ref [] in
  let recovery = ref None in
  for _ = 1 to restart_cycles do
    ignore (Services.checkpoint !db.services);
    for _ = 1 to spec.cycle_ops do
      let i = !next in
      attempt (fun () -> inst.op !db i);
      incr next
    done;
    attempt (fun () -> inst.in_flight !db);
    ignore (Services.checkpoint !db.services);
    Services.simulate_crash !db.services;
    let t0 = now_ns () in
    db := open_db cfg spec dir;
    restarts := secs_since t0 :: !restarts;
    recovery := !db.services.last_recovery;
    attempt (fun () -> inst.audit !db)
  done;
  Db.close !db;
  rm_rf dir;
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let c = Counters.get ph.counts in
  let per_op v = float_of_int v /. float_of_int (max 1 ph.ops) in
  let scanned, losers =
    match !recovery with
    | Some a -> (a.Dmx_wal.Recovery.scanned, List.length a.losers)
    | None -> (0, 0)
  in
  let layer n = List.assoc n ph.layers in
  let on_ops = max 1 ph.on_ops in
  let traced_per_op v = float_of_int v /. float_of_int on_ops in
  let self_us n =
    let _, self, _ = layer n in
    traced_per_op self /. 1e3
  in
  let calls n =
    let calls, _, _ = layer n in
    traced_per_op calls
  in
  let _, _, check_vetoes = layer "attach.check" in
  if cfg.traced && check_vetoes <> t.vetoes then begin
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    t.failures <-
      Printf.sprintf "check vetoes: ledger %d, seeded %d" check_vetoes t.vetoes
      :: t.failures
  end;
  let hits = c "bp.hits" and misses = c "bp.misses" in
  let ratio a b =
    if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)
  in
  let metrics =
    [ metric "setup_s" "s" ~n:setup_rounds (median !setup_times);
      metric "ops_per_s" "1/s" ~n:ph.ops ph.rate;
      latency "op_p50_us" t.op_lat 0.50;
      latency "commit_p50_us" t.commit_lat 0.50;
      metric "space_amp" "ratio" space_amp;
      metric "heap_peak_mb" "MB" heap_peak_mb ]
  in
  let layers =
    if not cfg.traced then []
    else
      let total name v = metric name "count" (float_of_int v) in
      [ metric "common.self_us_per_op" "us" ~n:ph.on_ops (self_us "db");
        metric "query.plan_cache.hit_ratio" "ratio"
          (ratio (c "plan.hits") (c "plan.translations"));
        total "query.translations" (c "plan.translations");
        metric "query.rows_examined_per_row" "ratio" examined ]
      @ List.concat_map
          (fun n ->
            [ metric (n ^ ".calls_per_op") "count" ~n:ph.on_ops (calls n);
              metric (n ^ ".self_us_per_op") "us" ~n:ph.on_ops (self_us n) ])
          [ "smethod.heap"; "smethod.btree"; "attach.btree_index";
            "attach.hash_index"; "attach.agg"; "attach.stats"; "attach.check" ]
      @ [ total "attach.check.vetoes" check_vetoes;
          metric "page.bp.hit_ratio" "ratio" (ratio hits misses);
          metric "page.bp.misses_per_op" "count" (per_op misses);
          metric "page.bp.evictions_per_op" "count" (per_op (c "bp.evictions")) ]
      @ (let reads, writes, syncs = ph.disk in
         [ metric "page.disk.reads_per_op" "count" (per_op reads);
           metric "page.disk.writes_per_op" "count" (per_op writes);
           metric "page.disk.syncs_per_op" "count" (per_op syncs);
            metric "page.disk.self_us_per_op" "us" ~n:ph.on_ops
             (self_us "page.disk") ])
      @ [ metric "wal.bytes_per_op" "B" (per_op (c "wal.bytes"));
          metric "wal.appends_per_op" "count" (per_op (c "wal.appends"));
          metric "wal.fsyncs_per_op" "count" (per_op (c "wal.fsyncs"));
          metric "wal.flush_us_p50" "us" ph.flush_p50;
          metric "lock.grants_per_op" "count" (per_op (c "lock.grants"));
          metric "lock.waits_per_op" "count" (per_op (c "lock.waits"));
          metric "txn.undo_records_per_op" "count"
            (per_op (c "txn.undo_records"));
          total "txn.aborts" (c "txn.aborts");
          total "core.ckpt.checkpoints" (c "ckpt.checkpoints");
          total "core.ckpt.pages_written" (c "ckpt.pages_written");
          total "wal.recovery.scanned_records" scanned;
          total "wal.recovery.losers" losers;
          metric "wal.recovery.restart_s" "s" ~n:restart_cycles (median !restarts);
          metric "gc.minor_words_per_op" "words"
            (ph.gc_minor /. float_of_int (max 1 ph.ops));
          metric "gc.major_collections_per_op" "count" (per_op ph.gc_major);
          metric "trace_overhead" "ratio"
            (let rate o ns = float_of_int o /. float_of_int (max 1 ns) in
             rate ph.off_ops ph.off_ns /. rate ph.on_ops ph.on_ns) ]
  in
  let counts =
    ("ops", ph.ops)
    :: ("vetoes", t.vetoes)
    :: ("pages", pages)
    :: ("recovery.scanned", scanned)
    :: ("recovery.losers", losers)
    :: ph.counts
  in
  {
    Report.workload = spec.name;
    correct = t.failed = 0;
    attempted = t.attempted;
    failed = t.failed;
    failures = t.failures;
    metrics;
    layers;
    counts;
  }
