(* Benchmark harness: regenerates the paper's performance claims.

   The paper (SIGMOD 1987) has no quantitative evaluation section; its two
   figures are architecture diagrams. Each experiment below regenerates one
   *claim* of the text, as indexed in DESIGN.md §4 and EXPERIMENTS.md.
   Absolute numbers depend on this simulated substrate; the *shape* (who
   wins, roughly by what factor, where crossovers fall) is the result.

   Every run writes its verdicts and counter deltas to BENCH_CLAIMS.json
   (format: EXPERIMENTS.md) and exits non-zero if any shape check fails;
   bench/gate.exe diffs that file against the checked-in baseline.

   Run with: dune exec bench/main.exe            (all experiments)
             dune exec bench/main.exe -- E2 E5   (a subset)            *)

open Dmx_value
open Workload
module Db = Dmx_db.Db
module Query = Dmx_query.Query
module Relation = Dmx_core.Relation
module Registry = Dmx_core.Registry
module Plan_cache = Dmx_query.Plan_cache
module Io_stats = Dmx_page.Io_stats

let wal_write_syscalls = Dmx_obs.Metrics.counter "wal.write_syscalls"
let wal_fsyncs = Dmx_obs.Metrics.counter "wal.fsyncs"
let wal_flushed_records = Dmx_obs.Metrics.counter "wal.flushed_records"
let undo_records = Dmx_obs.Metrics.counter "txn.undo_records"
let catalog_snapshots = Dmx_obs.Metrics.counter "catalog.snapshots"
let disk_read_calls = Dmx_obs.Metrics.counter "disk.read_calls"

(* ---------------------------------------------------------------------- *)
(* E1 — procedure-vector dispatch overhead (Bechamel)                      *)
(* ---------------------------------------------------------------------- *)

let bechamel_estimates tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 100) ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"" ~fmt:"%s%s" tests)
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> (name, t) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

let e1 () =
  Report.heading "E1 — extension dispatch overhead (claim C1)"
    ~claim:
      "\"the linkage to storage method and attachment routines ... must be \
       very efficient\"; vectors of procedure entry points make activation \
       \"quite efficient\"";
  let db = fresh_db () in
  let ctx = Db.begin_txn db in
  let keys =
    seed_employees ~name:"hot" ~storage_method:"memory" db ctx 1000
  in
  let desc = ok "rel" (Db.relation db ctx "hot") in
  let keys = Array.of_list keys in
  let smid = desc.Dmx_catalog.Descriptor.smethod_id in
  let (module M : Dmx_core.Intf.STORAGE_METHOD) = Registry.storage_method smid in
  let i = ref 0 in
  let next_key () =
    i := (!i + 1) land 1023;
    if !i < Array.length keys then keys.(!i) else keys.(0)
  in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"fetch: direct module call"
        (Staged.stage (fun () ->
             ignore (Dmx_smethod.Memory.fetch ctx desc (next_key ()) ())));
      Test.make ~name:"fetch: via registry (first-class module)"
        (Staged.stage (fun () -> ignore (M.fetch ctx desc (next_key ()) ())));
      Test.make ~name:"fetch: full generic dispatch (locks+vectors)"
        (Staged.stage (fun () ->
             ignore (Relation.fetch ctx desc (next_key ()) ())));
      Test.make ~name:"predicate eval (common service)"
        (Staged.stage
           (let pred = Dmx_expr.Parse.parse_exn emp_schema "salary > 50000" in
            let r = emp_record 7 ~depts:100 in
            fun () -> ignore (Dmx_expr.Eval.test r pred)));
    ]
  in
  (* Bechamel sizes its runs by wall-clock, so the calls it makes would
     land as time-dependent counter volumes; timing with metrics off keeps
     the experiment's counters exact (and times the default path). *)
  Dmx_obs.Metrics.set_enabled false;
  let results = bechamel_estimates tests in
  Dmx_obs.Metrics.set_enabled true;
  Report.table
    ~columns:[ "operation"; "ns/op" ]
    (List.map (fun (n, t) -> [ n; Report.f1 t ]) results);
  let full =
    List.assoc_opt "fetch: full generic dispatch (locks+vectors)" results
  in
  let direct = List.assoc_opt "fetch: direct module call" results in
  (match full, direct with
  | Some f, Some d when d > 0. ->
    Report.verdict
      ~ok:(f /. d < 20.)
      "full dispatch is %.1fx a direct call — cheap enough for \
       tuple-at-a-time interfaces" (f /. d)
  | _ -> ());
  Db.abort db ctx;
  Db.close db

(* ---------------------------------------------------------------------- *)
(* E2 — access paths accelerate selective access (claim C2)                *)
(* ---------------------------------------------------------------------- *)

let ceil_log2 n =
  let rec go bits = if 1 lsl bits >= n then bits else go (bits + 1) in
  go 0

let e2 () =
  Report.heading "E2 — B-tree/hash access paths vs heap scan (claim C2)"
    ~claim:
      "access paths \"accelerate access to specific subsets of the \
       relation's data\"; a B-tree \"will return a low cost if there is a \
       predicate on the key\"";
  let db = fresh_db () in
  let n = 20_000 in
  ignore
    (ok "seed"
       (Db.with_txn db (fun ctx ->
            ignore (seed_employees ~depts:200 db ctx n);
            ok "pk"
              (Db.create_attachment db ctx ~relation:"employee"
                 ~attachment_type:"btree_index" ~name:"pk"
                 ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
            ok "hash"
              (Db.create_attachment db ctx ~relation:"employee"
                 ~attachment_type:"hash_index" ~name:"h_id"
                 ~attrs:[ ("fields", "id"); ("buckets", "64") ] ());
            ok "dept"
              (Db.create_attachment db ctx ~relation:"employee"
                 ~attachment_type:"btree_index" ~name:"by_dept"
                 ~attrs:[ ("fields", "dept") ] ());
            Ok ())));
  let ctx = Db.begin_txn db in
  let desc = ok "rel" (Db.relation db ctx "employee") in
  let bt = Option.get (Registry.attachment_id "btree_index") in
  let h = Option.get (Registry.attachment_id "hash_index") in
  let reps = 100 in
  let probe f =
    let (), secs, io =
      with_io db (fun () ->
          for r = 1 to reps do
            f (1 + ((r * 97) mod n))
          done)
    in
    (us_per secs reps, float_of_int (logical_io io) /. float_of_int reps)
  in
  let scan_point =
    probe (fun k ->
        let scan =
          ok "scan"
            (Relation.scan ctx desc
               ~filter:(Dmx_expr.Parse.parse_exn emp_schema (Fmt.str "id = %d" k))
               ())
        in
        ignore (Dmx_core.Scan_help.record_scan_to_list scan))
  in
  let btree_point =
    probe (fun k ->
        List.iter
          (fun key -> ignore (ok "f" (Relation.fetch ctx desc key ())))
          (ok "lookup"
             (Relation.lookup ctx desc ~attachment_id:bt ~instance:1
                ~key:[| Value.int k |])))
  in
  let hash_point =
    probe (fun k ->
        List.iter
          (fun key -> ignore (ok "f" (Relation.fetch ctx desc key ())))
          (ok "lookup"
             (Relation.lookup ctx desc ~attachment_id:h ~instance:1
                ~key:[| Value.int k |])))
  in
  Report.table
    ~columns:[ "point access (id = k), 20k rows"; "us/op"; "logical I/O/op" ]
    [
      [ "heap scan + filter"; Report.f1 (fst scan_point); Report.f1 (snd scan_point) ];
      [ "B-tree access path"; Report.f1 (fst btree_point); Report.f1 (snd btree_point) ];
      [ "hash access path"; Report.f1 (fst hash_point); Report.f1 (snd hash_point) ];
    ];
  Report.verdict
    ~ok:
      (snd btree_point < snd scan_point /. 10.
      && snd hash_point < snd scan_point /. 10.)
    "index point access orders of magnitude below scan, B-tree and hash";
  (* The unique index on 20k ids has height 2: a point lookup pins its
     root and the leaf and stops at the one entry, then fetches the
     record. *)
  Report.verdict
    ~ok:(snd btree_point <= 3.0)
    "B-tree point access reads %.2f logical I/O per op (gate: <= 3.00: \
     root, leaf, the fetch)"
    (snd btree_point);
  (* The unique index's probe binary-searches each node it pins: at most
     ceil(log2 n) + 1 key compares per node, n the index's entries (an
     upper bound on any node's). A linear walk of a node compares up to
     every entry it holds. *)
  let compares = Dmx_obs.Metrics.counter "btree.compares" in
  let compared = Dmx_obs.Metrics.value compares in
  let (), _, index_io =
    with_io db (fun () ->
        for r = 1 to reps do
          ignore
            (ok "lookup"
               (Relation.lookup ctx desc ~attachment_id:bt ~instance:1
                  ~key:[| Value.int (1 + ((r * 97) mod n)) |]))
        done)
  in
  let per_probe =
    float_of_int (Dmx_obs.Metrics.value compares - compared)
    /. float_of_int reps
  in
  let nodes = float_of_int (logical_io index_io) /. float_of_int reps in
  let per_node = ceil_log2 n + 1 in
  Report.verdict
    ~ok:(per_probe > 0. && per_probe <= nodes *. float_of_int per_node)
    "a unique B-tree point probe compares %.1f keys in %.2f pinned nodes \
     (gate: <= %d per node, ceil(log2 %d) + 1)"
    per_probe nodes per_node n;
  (* The hash index's 64 buckets get about 310 ids each, more than a page
     holds: the directory, a chain of one or two pages, the fetch. *)
  Report.verdict
    ~ok:(snd hash_point <= 4.0)
    "hash point access reads %.2f logical I/O per op (gate: <= 4.00: \
     directory, a bucket chain of at most two pages, the fetch)"
    (snd hash_point);
  (* range selectivity sweep: planner choice + costs *)
  let widths = [ (20, "0.1%"); (200, "1%"); (2000, "10%"); (10000, "50%") ] in
  let rows =
    List.map
      (fun (w, label) ->
        let where = Fmt.str "id >= 5000 AND id < %d" (5000 + w) in
        let q = Query.select ~where "employee" in
        let plan = ok "explain" (Db.explain db ctx q) in
        let rows, secs, io = with_io db (fun () -> ok "q" (Db.query db ctx q ())) in
        [
          label;
          string_of_int (List.length rows);
          plan;
          Report.f1 (ms secs);
          string_of_int (logical_io io);
        ])
      widths
  in
  Report.table
    ~columns:[ "selectivity"; "rows"; "plan chosen"; "ms"; "logical I/O" ]
    rows;
  let first_plan = List.nth (List.nth rows 0) 2 in
  let last_plan = List.nth (List.nth rows 3) 2 in
  Report.verdict
    ~ok:
      (Strutil.contains first_plan "btree_index"
      && Strutil.contains last_plan "seq_scan")
    "planner crosses over from index to scan as selectivity grows";
  Db.commit db ctx;
  Db.close db

(* ---------------------------------------------------------------------- *)
(* E3 — spatial ENCLOSES via R-tree (claim C3)                              *)
(* ---------------------------------------------------------------------- *)

let e3 () =
  Report.heading "E3 — R-tree spatial access path (claim C3)"
    ~claim:
      "\"spatial database applications can make use of an R-tree access \
       path to efficiently compute certain spatial predicates\"; \"the \
       R-tree access path will recognize the ENCLOSES predicate and report \
       a low cost\"";
  let db = fresh_db () in
  ignore
    (ok "seed"
       (Db.with_txn db (fun ctx ->
            ignore (seed_parcels db ctx 10_000);
            ok "rt"
              (Db.create_attachment db ctx ~relation:"parcel"
                 ~attachment_type:"rtree_index" ~name:"rt"
                 ~attrs:[ ("rect", "xlo,ylo,xhi,yhi") ] ());
            Ok ())));
  let ctx = Db.begin_txn db in
  let windows = [ (30., "0.1%"); (100., "1%"); (320., "10%") ] in
  let rows =
    List.concat_map
      (fun (w, label) ->
        let where =
          Fmt.str "encloses(200.0, 200.0, %.1f, %.1f, xlo, ylo, xhi, yhi)"
            (200. +. w) (200. +. w)
        in
        let q = Query.select ~where "parcel" in
        let plan = ok "explain" (Db.explain db ctx q) in
        let res, secs, io = with_io db (fun () -> ok "q" (Db.query db ctx q ())) in
        (* equivalent query the R-tree cannot recognise: forced scan *)
        let where2 =
          Fmt.str
            "xlo >= 200.0 AND ylo >= 200.0 AND xhi <= %.1f AND yhi <= %.1f"
            (200. +. w) (200. +. w)
        in
        let q2 = Query.select ~where:where2 "parcel" in
        let res2, secs2, io2 =
          with_io db (fun () -> ok "q2" (Db.query db ctx q2 ()))
        in
        assert (List.length res = List.length res2);
        [
          [
            label; string_of_int (List.length res); plan; Report.f1 (ms secs);
            string_of_int (logical_io io);
          ];
          [
            label; string_of_int (List.length res2); "(forced scan)";
            Report.f1 (ms secs2); string_of_int (logical_io io2);
          ];
        ])
      windows
  in
  Report.table
    ~columns:[ "window"; "parcels"; "plan"; "ms"; "logical I/O" ]
    rows;
  let rtree_io = int_of_string (List.nth (List.nth rows 0) 4) in
  let scan_io = int_of_string (List.nth (List.nth rows 1) 4) in
  Report.verdict
    ~ok:(rtree_io * 5 < scan_io)
    "R-tree answers small ENCLOSES windows with a fraction of the scan I/O";
  Db.commit db ctx;
  Db.close db

(* ---------------------------------------------------------------------- *)
(* E4 — attached-procedure maintenance cost (claim C4)                      *)
(* ---------------------------------------------------------------------- *)

let e4 () =
  Report.heading "E4 — per-modification attachment overhead (claim C4)"
    ~claim:
      "attachments are maintained \"implicitly as side effects of \
       operations which modify the contents of a relation\" — each extra \
       instance adds one attached-procedure activation per modification";
  let configs =
    [
      ("no attachments", []);
      ("+ unique pk index", [ `Pk ]);
      ("+ dept index", [ `Pk; `Dept ]);
      ("+ check constraint", [ `Pk; `Dept; `Check ]);
      ("+ stats", [ `Pk; `Dept; `Check; `Stats ]);
    ]
  in
  let n = 3000 in
  let rows =
    List.map
      (fun (label, feats) ->
        let db = fresh_db () in
        let secs =
          let r =
            Db.with_txn db (fun ctx ->
                ignore
                  (ok "create"
                     (Db.create_relation db ctx ~name:"t" ~schema:emp_schema ()));
                List.iter
                  (fun f ->
                    let att ty nm attrs =
                      ok nm
                        (Db.create_attachment db ctx ~relation:"t"
                           ~attachment_type:ty ~name:nm ~attrs ())
                    in
                    match f with
                    | `Pk ->
                      att "btree_index" "pk"
                        [ ("fields", "id"); ("unique", "true") ]
                    | `Dept -> att "btree_index" "by_dept" [ ("fields", "dept") ]
                    | `Check ->
                      att "check" "sal" [ ("predicate", "salary > 0") ]
                    | `Stats -> att "stats" "st" [ ("fields", "salary") ])
                  feats;
                let (), secs =
                  time (fun () ->
                      for i = 1 to n do
                        ignore
                          (ok "ins"
                             (Db.insert db ctx ~relation:"t"
                                (emp_record i ~depts:50)))
                      done)
                in
                Ok secs)
          in
          ok "txn" r
        in
        Db.close db;
        [ label; Report.f1 (us_per secs n) ])
      configs
  in
  Report.table ~columns:[ "configuration"; "us/insert" ] rows;
  let cost i = float_of_string (List.nth (List.nth rows i) 1) in
  let base = cost 0 and pk = cost 1 and full = cost 4 in
  (* the unique index (duplicate check + maintenance) dominates; the three
     further attachment types must add less than three more pk-indexes *)
  Report.verdict
    ~ok:(full -. pk < 3. *. (pk -. base))
    "first index costs %.0fus; three further attachment types add only \
     %.0fus together — per-attachment cost is bounded" (pk -. base)
    (full -. pk)

(* ---------------------------------------------------------------------- *)
(* E5 — bound plans vs re-translation (claim C5)                            *)
(* ---------------------------------------------------------------------- *)

let e5 () =
  Report.heading "E5 — bound query plans and automatic re-translation (C5)"
    ~claim:
      "saved plans avoid \"the non-trivial costs of accessing the relation \
       descriptions and optimizing the query at query execution time\"; \
       invalidated plans \"are automatically re-translated ... the next \
       time the query is invoked\"";
  let db = fresh_db () in
  ignore
    (ok "seed"
       (Db.with_txn db (fun ctx ->
            ignore (seed_employees ~depts:200 db ctx 20_000);
            ok "idx"
              (Db.create_attachment db ctx ~relation:"employee"
                 ~attachment_type:"btree_index" ~name:"by_dept"
                 ~attrs:[ ("fields", "dept") ] ());
            Ok ())));
  let q = Query.select ~where:"dept = ?0" "employee" in
  let reps = 500 in
  let ctx = Db.begin_txn db in
  Plan_cache.reset_stats db.Db.cache;
  let (), cached_secs =
    time (fun () ->
        for r = 1 to reps do
          ignore
            (ok "q"
               (Db.query db ctx q
                  ~params:[| Value.String (Fmt.str "d%d" (r mod 200)) |]
                  ()))
        done)
  in
  let cached_stats = Plan_cache.stats db.Db.cache in
  let (), fresh_secs =
    time (fun () ->
        for r = 1 to reps do
          let plan =
            ok "translate" (Dmx_query.Planner.translate ctx q)
          in
          ignore
            (ok "exec"
               (Dmx_query.Executor.run ctx plan
                  ~params:[| Value.String (Fmt.str "d%d" (r mod 200)) |]
                  ()))
        done)
  in
  Report.table
    ~columns:[ "mode"; "us/exec"; "translations" ]
    [
      [
        "bound plan (cache)"; Report.f1 (us_per cached_secs reps);
        string_of_int cached_stats.Plan_cache.translations;
      ];
      [
        "re-translate every call"; Report.f1 (us_per fresh_secs reps);
        string_of_int reps;
      ];
    ];
  Report.verdict
    ~ok:(cached_stats.Plan_cache.translations = 1)
    "the bound plan was translated once for %d executions (%.2fx faster than \
     per-call optimization)" reps (fresh_secs /. cached_secs);
  (* invalidation: drop the index; the very next call re-translates *)
  Db.commit db ctx;
  ignore
    (ok "drop"
       (Db.with_txn db (fun ctx ->
            ok "drop"
              (Db.drop_attachment db ctx ~relation:"employee"
                 ~attachment_type:"btree_index" ~name:"by_dept");
            Ok ())));
  ignore
    (ok "revalidate"
       (Db.with_txn db (fun ctx ->
            ignore
              (ok "q" (Db.query db ctx q ~params:[| Value.String "d5" |] ()));
            Ok ())));
  let s = Plan_cache.stats db.Db.cache in
  Fmt.pr "after dropping the index: invalidations=%d (plan re-translated \
          automatically)@."
    s.Plan_cache.invalidations;
  Report.verdict ~ok:(s.Plan_cache.invalidations = 1)
    "dependency tracking invalidated exactly the stale plan";
  Db.close db

(* ---------------------------------------------------------------------- *)
(* E6 — filter predicates evaluated in the buffer pool (claim C6)           *)
(* ---------------------------------------------------------------------- *)

(* Every native storage method scans through its run producer, and its
   record cursor is an adapter over those runs, so the record path and the
   batch path share the pins and the decode. On the heap filtered scan the
   predicate is ablated with two arms over the same runs: the interpreter
   ([Eval.test]) applied to unfiltered runs above the interface, against
   [scan_batch ~filter], which span-matches the encoded payload in the pinned
   page and materialises qualifying records only. Gates are exact: fewer
   records cross the interface than the relation holds, result parity across
   arms and paths, one pin per heap page on both paths, exact
   explain-analyze counts, and a never-matching pushed filter allocating
   under one minor word per scanned record (the matcher and the page loop
   allocate nothing per rejected record). Timing ratios are reported, not
   gated. *)
let e6 () =
  Report.heading "E6 — predicate pushdown into the storage method (C6)"
    ~claim:
      "\"filter predicates [are evaluated] while the field values from the \
       relation storage or access path are still in the buffer pool\" — \
       non-qualifying records never cross the generic interface";
  let db = fresh_db () in
  let rows = 100_000 in
  let ctx = Db.begin_txn db in
  let heap_keys = seed_employees ~depts:10 db ctx rows in
  ignore
    (seed_employees ~name:"kemp" ~storage_method:"btree"
       ~smethod_attrs:[ ("key", "id") ] ~depts:10 db ctx rows);
  let dept_schema =
    Schema.make_exn
      [
        Schema.column ~nullable:false "dname" Value.Tstring;
        Schema.column "floor" Value.Tint;
      ]
  in
  ignore
    (ok "create dept"
       (Db.create_relation db ctx ~name:"dept" ~schema:dept_schema
          ~storage_method:"btree" ~attrs:[ ("key", "dname") ] ()));
  for d = 0 to 9 do
    ignore
      (ok "ins dept"
         (Db.insert db ctx ~relation:"dept"
            [| Value.String (Fmt.str "d%d" d); Value.int d |]))
  done;
  Db.commit db ctx;
  let heap_pages =
    List.filter_map
      (function Record_key.Rid { page; _ } -> Some page | _ -> None)
      heap_keys
    |> List.sort_uniq compare |> List.length
  in
  let pred = Dmx_expr.Parse.parse_exn emp_schema "salary > 60000 AND dept = 'd3'" in
  let ctx = Db.begin_txn db in
  let hdesc = ok "employee" (Db.relation db ctx "employee") in
  let bdesc = ok "kemp" (Db.relation db ctx "kemp") in
  (* a scan also pins each directory page listing the data pages *)
  let heap_pages =
    heap_pages
    + List.length
        (Dmx_smethod.Heap.directory ctx (Dmx_smethod.Heap.head_of hdesc))
  in
  let ddesc = ok "dept" (Db.relation db ctx "dept") in
  let drain_runs (scan : Dmx_core.Intf.run_scan) f =
    let rec loop () =
      match scan.rn_next () with
      | None -> scan.rn_close ()
      | Some run ->
        Array.iter f run;
        loop ()
    in
    loop ()
  in
  (* unfiltered runs, the predicate applied per record outside the method *)
  let runs_with test desc () =
    let n = ref 0 in
    drain_runs (ok "scan_batch" (Relation.scan_batch ctx desc ())) (fun (_, r) ->
        if test r then incr n);
    !n
  in
  let interpreted = runs_with (fun r -> Dmx_expr.Eval.test r pred) in
  (* the predicate inside the producer *)
  let batch_scan ?filter desc () =
    let n = ref 0 in
    drain_runs
      (ok "scan_batch" (Relation.scan_batch ctx desc ?filter ()))
      (fun _ -> incr n);
    !n
  in
  (* the record cursor: the adapter over the same runs *)
  let record_scan ?filter desc () =
    List.length
      (Dmx_core.Scan_help.record_scan_to_list
         (ok "scan" (Relation.scan ctx desc ?filter ())))
  in
  let reps = 5 in
  let measure f =
    let n = f () in
    (* warm the pool, then time *)
    let (), secs = time (fun () -> for _ = 1 to reps do ignore (f ()) done) in
    (n, secs /. float_of_int reps)
  in
  let pins f =
    let n, _, d = with_io db f in
    (n, d.Io_stats.pool_hits + d.Io_stats.pool_misses)
  in
  let hn_interp, ht_interp = measure (interpreted hdesc) in
  let hn_span, ht_span = measure (batch_scan ~filter:pred hdesc) in
  let hn_rec, ht_rec = measure (record_scan ~filter:pred hdesc) in
  let bn_rec, bt_rec = measure (record_scan ~filter:pred bdesc) in
  let bn_batch, bt_batch = measure (batch_scan ~filter:pred bdesc) in
  let _, hp_record = pins (record_scan hdesc) in
  let heap_rows, hp_batch = pins (batch_scan hdesc) in
  (* a record the matcher rejects costs no allocation: minor words of a
     never-matching pushed filter, after a scan that warms the pool *)
  let never = Dmx_expr.Parse.parse_exn emp_schema "salary < 0" in
  ignore (batch_scan ~filter:never hdesc ());
  let w0 = Gc.minor_words () in
  let never_rows = batch_scan ~filter:never hdesc () in
  let never_words = (Gc.minor_words () -. w0) /. float_of_int heap_rows in
  (* the same logical join, both ways: record cursors with the interpreter
     as reference, vs the executor pulling runs *)
  let jpred =
    Dmx_expr.Parse.parse_exn emp_schema "salary > 99000 AND dept = 'd3'"
  in
  let record_join () =
    let scan = ok "scan" (Relation.scan ctx hdesc ()) in
    let out = ref 0 in
    let rec loop () =
      match scan.Dmx_core.Intf.rs_next () with
      | None -> scan.Dmx_core.Intf.rs_close ()
      | Some (_, r) ->
        if Dmx_expr.Eval.test r jpred then begin
          let key = Dmx_core.Intf.Incl [| r.(2) |] in
          out :=
            !out
            + List.length
                (Dmx_core.Scan_help.record_scan_to_list
                   (ok "inner" (Relation.scan ctx ddesc ~lo:key ~hi:key ())))
        end;
        loop ()
    in
    loop ();
    !out
  in
  let q =
    Query.join ~where:"salary > 99000 AND dept = 'd3'" "employee"
      ~on:("dept", "dept", "dname")
  in
  let plan = ok "translate" (Dmx_query.Planner.translate ctx q) in
  let exec_join () =
    List.length (ok "run" (Dmx_query.Executor.run ctx plan ()))
  in
  let jn_rec = record_join () in
  let jn_exec, jt_exec = measure exec_join in
  (* explain analyze must stay exact under batching: the root operator's
     row count is the result cardinality *)
  let analyzed_rows, root_rows =
    let rows, st = ok "analyze" (Dmx_query.Executor.analyze ctx plan ()) in
    (List.length rows, st.Dmx_query.Executor.os_rows)
  in
  Db.commit db ctx;
  Db.close db;
  (* a cold filtered scan of a file-backed heap: a sequential miss that
     follows the page before reads ahead, so the scan's P pages take one
     read call per 64 KB window, plus the directory's *)
  let cold_pred =
    Dmx_expr.Parse.parse_exn emp_schema "salary > 32000 AND dept = 'd3'"
  in
  let cold_rows, cold_pages, cold_reads, cold_calls =
    let dir = temp_dir "e6" in
    let db = Db.open_database ~dir () in
    let ctx = Db.begin_txn db in
    ignore (seed_employees ~depts:10 db ctx 5_000);
    Db.commit db ctx;
    Db.close db;
    let db = Db.open_database ~dir () in
    let ctx = Db.begin_txn db in
    let desc = ok "employee" (Db.relation db ctx "employee") in
    let calls0 = Dmx_obs.Metrics.value disk_read_calls in
    let scan () =
      let n = ref 0 in
      drain_runs
        (ok "scan_batch" (Relation.scan_batch ctx desc ~filter:cold_pred ()))
        (fun _ -> incr n);
      !n
    in
    let rows, _, d = with_io db scan in
    let calls = Dmx_obs.Metrics.value disk_read_calls - calls0 in
    let head = Dmx_smethod.Heap.head_of desc in
    let pages =
      Array.length (Dmx_smethod.Heap.data_pages ctx head)
      + List.length (Dmx_smethod.Heap.directory ctx head)
    in
    Db.commit db ctx;
    Db.close db;
    rm_dir dir;
    (rows, pages, d.Io_stats.page_reads, calls)
  in
  let window = 65536 / Dmx_page.Disk.default_page_size in
  let vs_span t = Report.f2 (t /. ht_span) in
  Report.table
    ~columns:[ "100k-row heap scan, filtered"; "rows out"; "ms"; "vs span" ]
    [
      [ "runs + Eval.test"; Report.i hn_interp; Report.f2 (ms ht_interp);
        vs_span ht_interp ];
      [ "scan_batch ~filter (span matcher)"; Report.i hn_span;
        Report.f2 (ms ht_span); vs_span ht_span ];
      [ "record cursor ~filter (adapter)"; Report.i hn_rec; Report.f2 (ms ht_rec);
        vs_span ht_rec ];
    ];
  Report.table
    ~columns:[ "never-matching scan_batch ~filter"; "rows out"; "minor words/record" ]
    [ [ "salary < 0"; Report.i never_rows; Report.f2 never_words ] ];
  Report.table
    ~columns:[ "other reads"; "rows out"; "ms" ]
    [
      [ "btree record cursor ~filter"; Report.i bn_rec; Report.f2 (ms bt_rec) ];
      [ "btree scan_batch ~filter"; Report.i bn_batch; Report.f2 (ms bt_batch) ];
      [ "join through the executor"; Report.i jn_exec; Report.f2 (ms jt_exec) ];
    ];
  Report.table
    ~columns:[ "heap scan pins"; "count" ]
    [
      [ "pages in relation"; Report.i heap_pages ];
      [ "pins, record cursor"; Report.i hp_record ];
      [ "pins, batch scan"; Report.i hp_batch ];
    ];
  Report.table
    ~columns:[ "cold scan of a 5k-row file-backed heap"; "count" ]
    [
      [ "rows out"; Report.i cold_rows ];
      [ "data and directory pages"; Report.i cold_pages ];
      [ "pages read"; Report.i cold_reads ];
      [ "read calls"; Report.i cold_calls ];
    ];
  Report.verdict
    ~ok:(hn_span < heap_rows)
    "pushdown passes %d of the relation's %d records across the interface"
    hn_span heap_rows;
  Report.verdict
    ~ok:
      (hn_interp = hn_span && hn_span = hn_rec && bn_rec = bn_batch
      && jn_rec = jn_exec)
    "every arm and path agrees: heap %d=%d=%d, btree %d=%d, join %d=%d rows"
    hn_interp hn_span hn_rec bn_rec bn_batch jn_rec jn_exec;
  Report.verdict
    ~ok:(hp_record = heap_pages && hp_batch = heap_pages)
    "record and batch scans pin each heap page exactly once: %d and %d pins \
     over %d data and directory pages"
    hp_record hp_batch heap_pages;
  Report.verdict
    ~ok:(never_rows = 0 && never_words < 1.)
    "a never-matching pushed filter allocates < 1 minor word per scanned \
     record: %.2f over %d records"
    never_words heap_rows;
  Report.verdict
    ~ok:
      (cold_rows > 0 && cold_reads = cold_pages
      && cold_calls <= ((cold_pages + window - 1) / window) + 1)
    "a cold sequential heap scan of %d pages reads each once in %d read \
     calls (gate: <= ceil(%d / %d) + 1)"
    cold_reads cold_calls cold_pages window;
  Report.verdict
    ~ok:(analyzed_rows = root_rows)
    "explain analyze stays exact under batching: root os_rows %d = %d rows"
    root_rows analyzed_rows

(* ---------------------------------------------------------------------- *)
(* E7 — log-driven undo: abort, partial rollback, restart (claim C7)       *)
(* ---------------------------------------------------------------------- *)

let e7 () =
  Report.heading "E7 — cost of abort / partial rollback / restart undo (C7)"
    ~claim:
      "\"the common recovery log is used to drive the storage method and \
       attachment implementations to undo the partial effects\" of vetoed \
       or aborted work — rollback cost tracks the amount of undone work";
  let v = Dmx_obs.Metrics.value in
  let create_t db =
    ignore
      (ok "setup"
         (Db.with_txn db (fun ctx ->
              ignore
                (ok "create"
                   (Db.create_relation db ctx ~name:"t" ~schema:emp_schema ()));
              ok "pk"
                (Db.create_attachment db ctx ~relation:"t"
                   ~attachment_type:"btree_index" ~name:"pk"
                   ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
              Ok ())))
  in
  (* undoable (Ext) records the transaction has logged so far *)
  let ext_records ctx =
    ctx.Dmx_core.Ctx.txn.Dmx_txn.Txn.chain
    |> List.filter (fun (r : Dmx_wal.Log_record.t) ->
           match r.kind with Ext _ -> true | _ -> false)
    |> List.length
  in
  (* undoable records logged by inserting ids [lo..hi] *)
  let insert db ctx lo hi =
    let l0 = ext_records ctx in
    for i = lo to hi do
      ignore (ok "ins" (Db.insert db ctx ~relation:"t" (emp_record i ~depts:10)))
    done;
    ext_records ctx - l0
  in
  (* records the undo pass dispatched, and its wall-clock *)
  let undo f =
    let u0 = v undo_records in
    let (), secs = time f in
    (v undo_records - u0, secs)
  in
  let in_txn f =
    let db = fresh_db () in
    create_t db;
    let r = f db (Db.begin_txn db) in
    Db.close db;
    r
  in
  let sizes = [ 10; 100; 1000 ] in
  let runs =
    List.map
      (fun n ->
        let commit =
          in_txn (fun db ctx ->
              ignore (insert db ctx 1 n);
              snd (time (fun () -> Db.commit db ctx)))
        in
        let logged, (undone, abort) =
          in_txn (fun db ctx ->
              let logged = insert db ctx 1 n in
              (logged, undo (fun () -> Db.abort db ctx)))
        in
        let first_logged, half_logged, (half_undone, partial) =
          in_txn (fun db ctx ->
              let first = insert db ctx 1 (n / 2) in
              Dmx_core.Services.savepoint ctx "half";
              let logged = insert db ctx ((n / 2) + 1) n in
              let r = undo (fun () -> Dmx_core.Services.rollback_to ctx "half") in
              Db.abort db ctx;
              (first, logged, r))
        in
        ( n,
          commit,
          (logged, undone, abort),
          (first_logged, half_logged, half_undone, partial) ))
      sizes
  in
  Report.table
    ~columns:[ "txn size"; "outcome"; "log records"; "undone"; "ms" ]
    (List.concat_map
       (fun (n, commit, (l, u, a), (_, hl, hu, p)) ->
         [
           [ Report.i n; "commit"; ""; ""; Report.f2 (ms commit) ];
           [ ""; "abort (full undo)"; Report.i l; Report.i u; Report.f2 (ms a) ];
           [
             ""; "rollback to savepoint (half undo)"; Report.i hl; Report.i hu;
             Report.f2 (ms p);
           ];
         ])
       runs);
  Report.verdict
    ~ok:
      (List.for_all
         (fun (_, _, (l, u, _), (fl, hl, hu, _)) ->
           u = l && hu = hl && fl + hl = l)
         runs)
    "undo walks exactly the transaction's log suffix: at every size a full \
     abort undid all the records its inserts logged, and a rollback to the \
     half-way savepoint undid those the second half logged";
  (* restart recovery: a crashed transaction with flushed effects is undone
     by the log-driven restart pass *)
  let dir = temp_dir "rec" in
  Db.register_defaults ();
  let db = Db.open_database ~dir () in
  create_t db;
  let ctx = Db.begin_txn db in
  ignore (insert db ctx 1 1000);
  Dmx_wal.Wal.flush db.Db.services.Dmx_core.Services.wal;
  ignore (Dmx_page.Buffer_pool.flush_all db.Db.services.Dmx_core.Services.bp);
  Dmx_core.Services.simulate_crash db.Db.services;
  let db2, restart_secs = time (fun () -> Db.open_database ~dir ()) in
  let losers =
    match db2.Db.services.Dmx_core.Services.last_recovery with
    | Some a -> List.length a.Dmx_wal.Recovery.losers
    | None -> 0
  in
  Db.close db2;
  rm_dir dir;
  Fmt.pr
    "restart recovery of a crashed 1000-insert transaction (flushed, with \
     index): %.2f ms, %d loser@."
    (ms restart_secs) losers;
  Report.verdict ~ok:(losers = 1) "restart undid the crashed transaction";
  (* The catalog snapshot is DDL's: a descriptor changes only there, so a
     commit of inserts and deletes writes none. *)
  let dir = temp_dir "snap" in
  let db = Db.open_database ~dir () in
  let s0 = v catalog_snapshots in
  create_t db;
  let ddl = v catalog_snapshots - s0 in
  let s1 = v catalog_snapshots in
  let commits = 20 in
  let dml_txn f = ok "dml" (Db.with_txn db f) in
  for i = 1 to commits / 2 do
    let key =
      dml_txn (fun ctx ->
          Db.insert db ctx ~relation:"t" (emp_record i ~depts:10))
    in
    ignore (dml_txn (fun ctx -> Db.delete db ctx ~relation:"t" key))
  done;
  let dml = v catalog_snapshots - s1 in
  Db.close db;
  rm_dir dir;
  Fmt.pr "catalog snapshots: %d at the DDL commit, %d over %d DML commits@." ddl
    dml commits;
  Report.verdict ~ok:(dml = 0 && ddl = 1)
    "a DML commit writes %d catalog snapshots (%d DML commits; the DDL \
     commit wrote %d)"
    dml commits ddl

(* ---------------------------------------------------------------------- *)
(* E8 — join via join-index attachment (claim C8)                           *)
(* ---------------------------------------------------------------------- *)

let e8 () =
  Report.heading "E8 — join index vs nested-loop join (C8)"
    ~claim:
      "access paths \"need not be limited to a single table (e.g., join \
       indexes [VALDURIEZ 85])\" — a precomputed join index turns a join \
       into a pair-list traversal";
  let dept_schema =
    Schema.make_exn
      [
        Schema.column ~nullable:false "name" Value.Tstring;
        Schema.column "building" Value.Tstring;
      ]
  in
  let setup ?(join_index = false) ?(inner_index = false) () =
    let db = fresh_db () in
    ignore
      (ok "seed"
         (Db.with_txn db (fun ctx ->
              ignore
                (ok "dept"
                   (Db.create_relation db ctx ~name:"dept" ~schema:dept_schema ()));
              for d = 0 to 99 do
                ignore
                  (ok "d"
                     (Db.insert db ctx ~relation:"dept"
                        [|
                          Value.String (Fmt.str "d%d" d);
                          Value.String (Fmt.str "b%d" (d mod 7));
                        |]))
              done;
              ignore (seed_employees ~depts:100 db ctx 5000);
              if inner_index then
                ok "ii"
                  (Db.create_attachment db ctx ~relation:"dept"
                     ~attachment_type:"btree_index" ~name:"dept_pk"
                     ~attrs:[ ("fields", "name"); ("unique", "true") ] ());
              if join_index then
                ok "ji"
                  (Db.create_attachment db ctx ~relation:"employee"
                     ~attachment_type:"join_index" ~name:"emp_dept"
                     ~attrs:
                       [ ("field", "dept"); ("other", "dept");
                         ("other_field", "name") ]
                     ());
              Ok ())));
    db
  in
  let q = Query.join "employee" ~on:("dept", "dept", "name") in
  let run db =
    let ctx = Db.begin_txn db in
    let plan = ok "explain" (Db.explain db ctx q) in
    let rows, secs, io = with_io db (fun () -> ok "q" (Db.query db ctx q ())) in
    Db.commit db ctx;
    Db.close db;
    (plan, List.length rows, secs, logical_io io)
  in
  let nl_plain = run (setup ()) in
  let nl_indexed = run (setup ~inner_index:true ()) in
  let ji = run (setup ~join_index:true ()) in
  let row (plan, n, secs, io) =
    [ plan; string_of_int n; Report.f1 (ms secs); string_of_int io ]
  in
  Report.table
    ~columns:[ "plan (5000 emp x 100 dept)"; "rows"; "ms"; "logical I/O" ]
    [ row nl_plain; row nl_indexed; row ji ];
  (* Wall-clock, not logical I/O: the inner relation fits one page, which
     the nested loop pins once per outer row, while the join index pays a
     lookup and a fetch per pair — fewer pins for the slower plan. *)
  let _, _, s1, _ = nl_plain and p3, _, s3, _ = ji in
  Report.verdict
    ~ok:(Strutil.contains p3 "join_index" && s3 < s1)
    "the join-index plan beats the unindexed nested loop (%.1fx)" (s1 /. s3)

(* ---------------------------------------------------------------------- *)
(* E9 — B-tree-organised storage: order without a separate index (C9)       *)
(* ---------------------------------------------------------------------- *)

let e9 () =
  Report.heading "E9 — key-ordered storage method vs heap+index (C9)"
    ~claim:
      "records \"may be stored in the leaves of a B-tree index\" — the \
       storage method itself serves key-sequential access, with no access \
       path to maintain or traverse";
  let n = 20_000 in
  let db = fresh_db () in
  (* The ascending load fills its leaves (the rightmost leaf splits at its
     edge): it allocates within 5% of the pages a bottom-up build of the
     same entries writes. *)
  let (), _, load_io =
    with_io db (fun () ->
        ignore
          (ok "seed"
             (Db.with_txn db (fun ctx ->
                  ignore
                    (seed_employees ~name:"by_key" ~storage_method:"btree"
                       ~smethod_attrs:[ ("key", "id") ] ~depts:100 db ctx n);
                  Ok ()))))
  in
  let built =
    let d = Dmx_page.Disk.in_memory () in
    let t =
      Dmx_btree.Btree.create (Dmx_page.Buffer_pool.create ~capacity:64 d)
    in
    Dmx_btree.Btree.build t
      (Array.init n (fun i ->
           let r = emp_record (i + 1) ~depts:100 in
           ([| r.(0) |], Bytes.to_string (Codec.encode_record r))));
    Dmx_page.Disk.page_count d
  in
  Report.verdict
    ~ok:(float_of_int load_io.page_allocs <= 1.05 *. float_of_int built)
    "a sequential btree_org load of %d rows takes %d pages, build %d (gate: \
     <= 1.05x)"
    n load_io.page_allocs built;
  ignore
    (ok "seed"
       (Db.with_txn db (fun ctx ->
            ignore (seed_employees ~name:"by_heap" ~depts:100 db ctx n);
            ok "idx"
              (Db.create_attachment db ctx ~relation:"by_heap"
                 ~attachment_type:"btree_index" ~name:"pk"
                 ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
            Ok ())));
  let ctx = Db.begin_txn db in
  let ordered_scan rel_name =
    let desc = ok "rel" (Db.relation db ctx rel_name) in
    with_io db (fun () ->
        match Registry.storage_method_id "btree" with
        | _ ->
          if rel_name = "by_key" then begin
            let scan = ok "scan" (Relation.scan ctx desc ()) in
            List.length (Dmx_core.Scan_help.record_scan_to_list scan)
          end
          else begin
            (* heap: ordered access must go through the index attachment *)
            let bt = Option.get (Registry.attachment_id "btree_index") in
            let ks =
              ok "iscan"
                (Relation.attachment_scan ctx desc ~attachment_id:bt
                   ~instance:1 ())
            in
            let (module M : Dmx_core.Intf.STORAGE_METHOD) =
              Registry.storage_method desc.Dmx_catalog.Descriptor.smethod_id
            in
            let rec loop n =
              match ks.Dmx_core.Intf.ks_next () with
              | None -> n
              | Some key ->
                ignore (M.fetch ctx desc key ());
                loop (n + 1)
            in
            loop 0
          end)
  in
  let n1, s1, io1 = ordered_scan "by_key" in
  let n2, s2, io2 = ordered_scan "by_heap" in
  assert (n1 = n && n2 = n);
  Report.table
    ~columns:[ "ordered full scan (20k rows)"; "ms"; "logical I/O" ]
    [
      [ "btree-organised storage method"; Report.f1 (ms s1); string_of_int (logical_io io1) ];
      [ "heap + B-tree index (fetch per key)"; Report.f1 (ms s2); string_of_int (logical_io io2) ];
    ];
  Report.verdict
    ~ok:(logical_io io1 < logical_io io2)
    "key-organised storage avoids the per-record fetch of index + heap";
  Db.commit db ctx;
  Db.close db

(* ---------------------------------------------------------------------- *)
(* E10 — main-memory storage method for hot relations (C10)                 *)
(* ---------------------------------------------------------------------- *)

let e10 () =
  Report.heading "E10 — main-memory storage method for hot data (C10)"
    ~claim:
      "\"main memory data storage methods for selected high traffic \
       relations\" are one of the motivating extensions — a hot relation \
       larger than the buffer pool thrashes pages; the memory method does \
       no page I/O at all";
  let updates = 20_000 in
  let rows = 20_000 in
  (* 64-frame pool vs a ~300-page relation: heap updates evict and re-read *)
  let run storage_method =
    Db.register_defaults ();
    let db = Db.open_database ~pool_capacity:64 () in
    let r =
      Db.with_txn db (fun ctx ->
          let keys =
            seed_employees ~name:"hot" ~storage_method ~depts:10 db ctx rows
          in
          let keys = ref (Array.of_list keys) in
          let (), secs, io =
            with_io db (fun () ->
                for u = 1 to updates do
                  let i = (u * 5023) mod rows in
                  let nk =
                    ok "upd"
                      (Db.update db ctx ~relation:"hot" (!keys).(i)
                         (emp_record (i + 1) ~depts:10))
                  in
                  (!keys).(i) <- nk
                done)
          in
          Ok (secs, io))
    in
    let secs, io = ok "txn" r in
    Db.close db;
    (secs, io)
  in
  let mem_secs, mem_io = run "memory" in
  let heap_secs, heap_io = run "heap" in
  let physical (io : Io_stats.t) = io.page_reads + io.page_writes in
  Report.table
    ~columns:
      [ "storage method"; "updates/s (20k rows, 64-frame pool)"; "physical page I/O" ]
    [
      [
        "memory"; Report.f1 (float_of_int updates /. mem_secs);
        string_of_int (physical mem_io);
      ];
      [
        "heap (thrashing pool)"; Report.f1 (float_of_int updates /. heap_secs);
        string_of_int (physical heap_io);
      ];
    ];
  Report.verdict
    ~ok:(physical mem_io = 0 && physical heap_io > 0)
    "the memory method does zero page I/O where the heap does %d (%.1fx the \
     heap update rate)" (physical heap_io) (heap_secs /. mem_secs)

(* ---------------------------------------------------------------------- *)
(* Ablations (DESIGN.md section 4)                                          *)
(* ---------------------------------------------------------------------- *)

(* A2 — lock granularity: record-level locks under intention locks vs one
   relation-level X lock per operation. *)
let a2 () =
  Report.heading "A2 — lock granularity ablation"
    ~claim:
      "design choice: record locks under IS/IX intention locks (concurrent \
       writers on distinct records) vs relation-level X (serial writers)";
  let module LT = Dmx_lock.Lock_table in
  let module LM = Dmx_lock.Lock_mode in
  let n = 50_000 in
  let record_level () =
    let t = LT.create () in
    let (), secs =
      time (fun () ->
          for i = 1 to n do
            ignore (LT.acquire t ~txid:1 ~mode:LM.IX (LT.Relation 1));
            ignore
              (LT.acquire t ~txid:1 ~mode:LM.X
                 (LT.Record (1, string_of_int i)))
          done;
          LT.release_all t 1)
    in
    secs
  in
  let relation_level () =
    let t = LT.create () in
    let (), secs =
      time (fun () ->
          for _ = 1 to n do
            ignore (LT.acquire t ~txid:1 ~mode:LM.X (LT.Relation 1))
          done;
          LT.release_all t 1)
    in
    secs
  in
  let rl = record_level () in
  let tl = relation_level () in
  (* concurrency check: under record locks two writers on distinct records
     coexist; under relation X they cannot *)
  let t = LT.create () in
  ignore (LT.acquire t ~txid:1 ~mode:LM.IX (LT.Relation 1));
  ignore (LT.acquire t ~txid:1 ~mode:LM.X (LT.Record (1, "a")));
  let concurrent_ok =
    LT.acquire t ~txid:2 ~mode:LM.IX (LT.Relation 1) = LT.Granted
    && LT.acquire t ~txid:2 ~mode:LM.X (LT.Record (1, "b")) = LT.Granted
  in
  let t2 = LT.create () in
  ignore (LT.acquire t2 ~txid:1 ~mode:LM.X (LT.Relation 1));
  let serial_blocks =
    LT.acquire t2 ~txid:2 ~mode:LM.X (LT.Relation 1) <> LT.Granted
  in
  Report.table
    ~columns:[ "granularity"; "ns/lock op"; "concurrent writers?" ]
    [
      [
        "record + intention locks";
        Report.f1 (rl /. float_of_int n *. 1e9 /. 2.);
        (if concurrent_ok then "yes" else "no");
      ];
      [
        "relation X only";
        Report.f1 (tl /. float_of_int n *. 1e9);
        (if serial_blocks then "no" else "yes");
      ];
    ];
  Report.verdict
    ~ok:(concurrent_ok && serial_blocks)
    "record granularity admits concurrent writers at a small per-lock cost"

(* A5 — savepoint cost vs open scans: scan positions are captured at
   savepoint establishment instead of logging every position change
   ("their state changes are not logged (for performance reasons)",
   p. 224). *)
let a5 () =
  Report.heading "A5 — savepoint cost vs open key-sequential scans"
    ~claim:
      "scan position changes are not logged; instead \"when a transaction \
       rollback point is established, the storage methods and attachments \
       are driven by the system to obtain their key-sequential access \
       positions\"";
  let db = fresh_db () in
  let ctx = Db.begin_txn db in
  ignore (seed_employees ~depts:10 db ctx 2000);
  let desc = ok "rel" (Db.relation db ctx "employee") in
  let reps = 2000 in
  let measure n_scans =
    let scans =
      List.init n_scans (fun _ ->
          let s = ok "scan" (Relation.scan ctx desc ()) in
          ignore (s.Dmx_core.Intf.rs_next ());
          s)
    in
    let (), secs =
      time (fun () ->
          for i = 1 to reps do
            Dmx_core.Services.savepoint ctx (Fmt.str "sp%d" (i land 7))
          done)
    in
    List.iter (fun s -> s.Dmx_core.Intf.rs_close ()) scans;
    us_per secs reps
  in
  let rows =
    List.map
      (fun n -> [ string_of_int n; Report.f2 (measure n) ])
      [ 0; 1; 4; 16 ]
  in
  Report.table ~columns:[ "open scans"; "us/savepoint" ] rows;
  let c0 = float_of_string (List.nth (List.nth rows 0) 1) in
  let c16 = float_of_string (List.nth (List.nth rows 3) 1) in
  Report.verdict
    ~ok:(c16 < Float.max 2.0 (c0 *. 400.))
    "capture-at-savepoint keeps per-savepoint cost tiny (%.2f -> %.2f us \
     from 0 to 16 open scans) while scan stepping logs nothing" c0 c16;
  Db.abort db ctx;
  Db.close db

(* ---------------------------------------------------------------------- *)
(* Hot-path experiments (DESIGN.md section 11 and later engineering): not   *)
(* claims of the paper, but gated the same way.                             *)
(* ---------------------------------------------------------------------- *)

(* E11 — the WAL fast path: one contiguous write + one fsync per flush
   however many records are pending, and a restart that replays the log from
   one contiguous read. *)
let e11 () =
  Report.heading "E11 — batched WAL flush (dmx-fastpath)"
    ~claim:
      "all pending records are framed into one contiguous write followed by \
       a single fsync";
  (* flush batching: hundreds of pending records, one write, one fsync *)
  let dir = temp_dir "e11" in
  Db.register_defaults ();
  let db = Db.open_database ~dir () in
  let ctx = Db.begin_txn db in
  ignore
    (ok "create" (Db.create_relation db ctx ~name:"t" ~schema:emp_schema ()));
  for i = 1 to 500 do
    ignore (ok "ins" (Db.insert db ctx ~relation:"t" (emp_record i ~depts:10)))
  done;
  let v = Dmx_obs.Metrics.value in
  let ws0 = v wal_write_syscalls and fs0 = v wal_fsyncs in
  let fr0 = v wal_flushed_records in
  Dmx_wal.Wal.flush db.Db.services.Dmx_core.Services.wal;
  let ws = v wal_write_syscalls - ws0 and fs = v wal_fsyncs - fs0 in
  let fr = v wal_flushed_records - fr0 in
  Report.table
    ~columns:[ "flush of one 500-insert transaction"; "count" ]
    [
      [ "records hardened"; Report.i fr ];
      [ "write syscalls"; Report.i ws ];
      [ "fsyncs"; Report.i fs ];
    ];
  Report.verdict
    ~ok:(ws = 1 && fs = 1 && fr >= 500)
    "one write syscall + one fsync hardened %d pending records" fr;
  Db.commit db ctx;
  Db.close db;
  rm_dir dir;
  (* restart replay: Wal.open_file reads the whole log once and decodes
     records out of an immutable string instead of per-record channel IO.
     The history ends in a crash: a clean close checkpoints, leaving restart
     nothing to replay. *)
  let dir = temp_dir "e11r" in
  Db.register_defaults ();
  let db = Db.open_database ~dir () in
  let rows = 5_000 in
  ignore
    (ok "setup"
       (Db.with_txn db (fun ctx ->
            ignore
              (ok "create"
                 (Db.create_relation db ctx ~name:"t" ~schema:emp_schema ()));
            for i = 1 to rows do
              ignore
                (ok "ins" (Db.insert db ctx ~relation:"t" (emp_record i ~depts:10)))
            done;
            Ok ())));
  Dmx_core.Services.simulate_crash db.Db.services;
  let recs = ref 0 in
  let db, secs =
    time (fun () ->
        let db = Db.open_database ~dir () in
        (match db.Db.services.Dmx_core.Services.last_recovery with
        | Some a -> recs := a.Dmx_wal.Recovery.scanned
        | None -> ());
        db)
  in
  Db.close db;
  rm_dir dir;
  Report.table
    ~columns:[ "restart after a 5000-insert history"; "value" ]
    [
      [ "wal records replayed"; Report.i !recs ];
      [ "reopen time (ms)"; Report.f2 (secs *. 1e3) ];
      [ "us/record"; Report.f2 (us_per secs !recs) ];
    ];
  Report.verdict
    ~ok:(!recs > rows)
    "restart replays the full %d-record log from one contiguous read" !recs

(* E12 — clock eviction: per-eviction cost must stay flat as the pool
   grows, where the seed's fold-over-every-frame LRU grew linearly. *)
let e12 () =
  Report.heading "E12 — O(1) clock eviction vs pool size (dmx-fastpath)"
    ~claim:
      "second-chance clock eviction over a frame array costs O(1) amortized \
       per eviction — flat from 64 to 4096 frames, where a fold over every \
       frame grows linearly";
  let module Bp = Dmx_page.Buffer_pool in
  (* A page buffer lives [capacity] evictions before the clock reclaims its
     frame. With the default minor heap, buffers in a 4096-frame pool outlive
     minor collections and get promoted, so the timing measures GC promotion,
     not the clock sweep. A minor heap large enough for every pool size keeps
     the allocation lifecycle identical across capacities. *)
  let gc0 = Gc.get () in
  Gc.set { gc0 with Gc.minor_heap_size = 16 * 1024 * 1024 };
  let clock_steps = Dmx_obs.Metrics.counter "bp.clock_steps" in
  let evictions = Dmx_obs.Metrics.counter "bp.evictions" in
  let measure cap =
    let d = Dmx_page.Disk.in_memory ~page_size:256 () in
    let bp = Bp.create ~capacity:cap d in
    let churn n =
      for _ = 1 to n do
        let f = Bp.alloc bp in
        Bp.unpin bp f
      done
    in
    churn cap;
    (* pool now full: every further alloc evicts *)
    churn 10_000;
    let n = 100_000 in
    let steps0 = Dmx_obs.Metrics.value clock_steps in
    let evicted0 = Dmx_obs.Metrics.value evictions in
    let (), secs = time (fun () -> churn n) in
    let per_eviction =
      float_of_int (Dmx_obs.Metrics.value clock_steps - steps0)
      /. float_of_int (Dmx_obs.Metrics.value evictions - evicted0)
    in
    (secs *. 1e9 /. float_of_int n, per_eviction)
  in
  (* The gate reads the clock hand's steps per eviction, exact and
     machine-independent. The nanoseconds are the min of five interleaved
     rounds per size, for the table only: interleaving (64, 256, 4096, 64,
     ...) keeps slow process-lifetime drift from biasing whichever size runs
     last. *)
  let caps = [| 64; 256; 4096 |] in
  let floors = Array.make (Array.length caps) infinity in
  let steps = Array.make (Array.length caps) 0. in
  for _round = 1 to 5 do
    Array.iteri
      (fun i cap ->
        let ns, per_eviction = measure cap in
        floors.(i) <- Float.min floors.(i) ns;
        steps.(i) <- per_eviction)
      caps
  done;
  Gc.set gc0;
  Report.table
    ~columns:[ "pool capacity (frames)"; "ns/eviction"; "clock steps/eviction" ]
    (Array.to_list
       (Array.mapi
          (fun i cap ->
            [ string_of_int cap; Report.f1 floors.(i); Report.f2 steps.(i) ])
          caps));
  let s64 = steps.(0) and s4096 = steps.(2) in
  Report.verdict
    ~ok:(Float.abs (s4096 -. s64) <= 0.05 *. s64)
    "the clock hand takes %.2f steps per eviction at 64 frames and %.2f at \
     4096 (gate: flat within 5%%)" s64 s4096

(* E13 — the bulk modification path: insert_many vs a loop of inserts,
   same records, heap storage + unique B-tree pk + hash index on dept. *)
let e13 () =
  Report.heading "E13 — insert_many vs repeated insert (dmx-fastpath)"
    ~claim:
      "insert_many hoists descriptor/authorization/span work out of the \
       per-record loop and dispatches each attachment once per batch — at \
       batch=1000 it must be at least 2x the per-record path";
  let n = 3000 in
  let setup_db () =
    let db = fresh_db () in
    ignore
      (ok "setup"
         (Db.with_txn db (fun ctx ->
              ignore
                (ok "create"
                   (Db.create_relation db ctx ~name:"t" ~schema:emp_schema ()));
              ok "pk"
                (Db.create_attachment db ctx ~relation:"t"
                   ~attachment_type:"btree_index" ~name:"pk"
                   ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
              ok "hd"
                (Db.create_attachment db ctx ~relation:"t"
                   ~attachment_type:"hash_index" ~name:"hd"
                   ~attrs:[ ("fields", "dept"); ("buckets", "64") ] ());
              Ok ())))
    ;
    db
  in
  let run insert_all =
    (* min of three fresh runs: each run inserts [n] rows in one txn *)
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let db = setup_db () in
           let ctx = Db.begin_txn db in
           let (), secs = time (fun () -> insert_all db ctx) in
           Db.commit db ctx;
           Db.close db;
           us_per secs n))
  in
  let loop_us =
    run (fun db ctx ->
        for i = 1 to n do
          ignore
            (ok "ins" (Db.insert db ctx ~relation:"t" (emp_record i ~depts:50)))
        done)
  in
  let batch_us b =
    run (fun db ctx ->
        for k = 0 to (n / b) - 1 do
          let recs =
            Array.init b (fun j -> emp_record ((k * b) + j + 1) ~depts:50)
          in
          ignore (ok "im" (Db.insert_many db ctx ~relation:"t" recs))
        done)
  in
  let b1 = batch_us 1 and b10 = batch_us 10 and b1000 = batch_us 1000 in
  let row label us = [ label; Report.f2 us; Report.f2 (loop_us /. us) ] in
  Report.table
    ~columns:
      [ "3000 rows, heap + pk btree + dept hash"; "us/record"; "vs loop" ]
    [
      [ "repeated insert (loop)"; Report.f2 loop_us; "1.00" ];
      row "insert_many, batch=1" b1;
      row "insert_many, batch=10" b10;
      row "insert_many, batch=1000" b1000;
    ];
  Report.verdict
    ~ok:(loop_us /. b1000 >= 2.)
    "insert_many at batch=1000 is %.2fx the per-record path (gate: >= 2x)"
    (loop_us /. b1000);
  Report.verdict
    ~ok:(b1 < loop_us *. 1.5)
    "batch=1 stays within 1.5x of a plain insert — the bulk path does not \
     tax small batches"

(* E14 — query-store overhead: the identical select workload with the
   statement store off and on. The per-query cost of the store is one text
   normalization + hash, an Io_stats diff, and a hashtable update — it must
   stay within a small factor of the bare query path, and its contents after
   the run are exact: every literal variant collapses into one fingerprint
   whose call count equals the number of executions. *)
let e14 () =
  Report.heading "E14 — query-store overhead (dmx-querystore)"
    ~claim:
      "statement-level telemetry is cheap enough to leave on: the enabled \
       run stays within 3x of the disabled run, and distinct literals \
       collapse into one fingerprint with an exact call count";
  let module Qs = Dmx_obs.Query_store in
  let module Emit = Dmx_obs.Emit in
  let db = fresh_db () in
  let ctx = Db.begin_txn db in
  ignore
    (ok "create" (Db.create_relation db ctx ~name:"t" ~schema:emp_schema ()));
  for i = 1 to 500 do
    ignore (ok "ins" (Db.insert db ctx ~relation:"t" (emp_record i ~depts:10)))
  done;
  Db.commit db ctx;
  let iters = 2_000 in
  let run () =
    let ctx = Db.begin_txn db in
    for i = 1 to iters do
      (* ten literal variants of one statement shape: ten plan-cache keys,
         one query-store fingerprint *)
      let q =
        Query.select ~where:(Printf.sprintf "dept = 'd%d'" (i mod 10)) "t"
      in
      ignore (ok "q" (Db.query db ctx q ()))
    done;
    Db.abort db ctx
  in
  let measure () =
    run ();
    (* warm: plan cache bound, pool populated *)
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let (), secs = time run in
           us_per secs iters))
  in
  Emit.disarm `Statements;
  let off_us = measure () in
  Emit.arm `Statements;
  Emit.reset `Statements;
  let runs = 4 in
  (* measure () runs the workload once to warm plus [runs - 1] timed *)
  let on_us = measure () in
  let fingerprints = Qs.size (Emit.store ()) in
  let calls =
    match Qs.entries (Emit.store ()) with [ e ] -> e.Qs.e_calls | _ -> -1
  in
  Emit.disarm `Statements;
  (* contents stay live (not reset) so the "query_store" probe reports a
     deterministic delta in the gate baseline *)
  Report.table
    ~columns:[ "2000 selects, 10 literal variants"; "us/query" ]
    [
      [ "query store off"; Report.f2 off_us ];
      [ "query store on"; Report.f2 on_us ];
      [ "overhead"; Fmt.str "%.2fx" (on_us /. off_us) ];
    ];
  Report.verdict
    ~ok:(on_us < off_us *. 3.)
    "the enabled store costs %.2fx the bare query path (gate: < 3x)"
    (on_us /. off_us);
  Report.verdict
    ~ok:(fingerprints = 1)
    "all 10 literal variants collapse into %d fingerprint(s) (gate: exactly 1)"
    fingerprints;
  Report.verdict
    ~ok:(calls = runs * iters)
    "the store counted %d calls across %d runs of %d queries (gate: exact)"
    calls runs iters;
  Db.close db

(* E15 — bounded restart via checkpoints: the auto policy checkpoints
   every 25 KB of log (about 500 records), each checkpoint writes the dirty pages and logs one
   record, and truncation drops the log behind the cut — so the records a
   restart must rescan track the distance to the last checkpoint, not the
   length of history. Without checkpoints the same workload's restart scan
   grows linearly with the log. The history ends in a crash (a clean close
   checkpoints), and the rescan is what restart's analysis visited. *)
let e15 () =
  Report.heading "E15 — bounded restart via checkpoints (dmx-checkpoint)"
    ~claim:
      "records replayed at restart stay flat (±20%) as the workload grows \
       4x with checkpoints on, and grow linearly (>= 3x) with them off";
  let txn_size = 50 in
  let run ~rows ~ckpt =
    let dir =
      temp_dir (Fmt.str "e15%s%d" (if ckpt then "c" else "p") rows)
    in
    Db.register_defaults ();
    let db = Db.open_database ~dir () in
    if ckpt then
      Dmx_core.Services.set_checkpoint_policy ~every_bytes:25_000
        db.Db.services;
    ignore
      (ok "create"
         (Db.with_txn db (fun ctx ->
              Db.create_relation db ctx ~name:"t" ~schema:emp_schema ())));
    for t = 0 to (rows / txn_size) - 1 do
      let ctx = Db.begin_txn db in
      for i = 1 to txn_size do
        ignore
          (ok "ins"
             (Db.insert db ctx ~relation:"t"
                (emp_record ((t * txn_size) + i) ~depts:10)))
      done;
      Db.commit db ctx
    done;
    let wal = db.Db.services.Dmx_core.Services.wal in
    let history = Dmx_wal.Wal.last_lsn wal in
    let retained = Dmx_wal.Wal.record_count wal in
    Dmx_core.Services.simulate_crash db.Db.services;
    let scanned = ref 0 in
    let db, secs =
      time (fun () ->
          let db = Db.open_database ~dir () in
          (match db.Db.services.Dmx_core.Services.last_recovery with
          | Some a -> scanned := a.Dmx_wal.Recovery.scanned
          | None -> ());
          db)
    in
    Db.close db;
    rm_dir dir;
    (!scanned, history, retained, secs)
  in
  let s2c, h2c, r2c, t2c = run ~rows:2_000 ~ckpt:true in
  let s8c, h8c, r8c, t8c = run ~rows:8_000 ~ckpt:true in
  let s2p, h2p, r2p, t2p = run ~rows:2_000 ~ckpt:false in
  let s8p, h8p, r8p, t8p = run ~rows:8_000 ~ckpt:false in
  let row label (s, h, r, secs) =
    [
      label; Report.i s; Report.i (Int64.to_int h); Report.i r;
      Report.f2 (secs *. 1e3);
    ]
  in
  Report.table
    ~columns:
      [
        "workload"; "records rescanned"; "log history (lsns)";
        "records retained"; "reopen (ms)";
      ]
    [
      row "2000 rows, ckpt every 25 KB" (s2c, h2c, r2c, t2c);
      row "8000 rows, ckpt every 25 KB" (s8c, h8c, r8c, t8c);
      row "2000 rows, no checkpoints" (s2p, h2p, r2p, t2p);
      row "8000 rows, no checkpoints" (s8p, h8p, r8p, t8p);
    ];
  let flat a b =
    let a = float_of_int a and b = float_of_int b in
    a <= b *. 1.2 && b <= a *. 1.2
  in
  Report.verdict ~ok:(flat s2c s8c)
    "with checkpoints the restart scan is flat: %d -> %d records across a \
     4x longer history (gate: within 20%%)" s2c s8c;
  Report.verdict
    ~ok:(s8p >= 3 * s2p)
    "without checkpoints it grows with the log: %d -> %d records (gate: >= \
     3x)" s2p s8p;
  Report.verdict
    ~ok:(s8c * 4 < s8p && r8c * 4 < r8p)
    "at 8000 rows checkpoints cut the rescan to %d of %d records and \
     truncation retains %d of %d (gate: both < 1/4)" s8c s8p r8c r8p

(* ---------------------------------------------------------------------- *)

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5);
    ("E6", e6); ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10);
    ("E11", e11); ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15);
    ("A2", a2); ("A5", a5);
  ]

(* Machine-readable mirror of the run: per-experiment wall-clock, shape-check
   verdicts, and counter deltas, for CI artifacts and offline diffing. The
   format is documented in EXPERIMENTS.md. *)
let write_bench_json ~path results =
  let module J = Dmx_obs.Obs_json in
  let experiment (name, secs, verdicts, deltas) =
    J.Obj
      [
        ("name", J.Str name);
        ("seconds", J.Float secs);
        ( "shape_checks",
          J.List
            (List.map
               (fun { Report.id; ok; message } ->
                 J.Obj
                   [
                     ("id", J.Str id); ("ok", J.Bool ok);
                     ("message", J.Str message);
                   ])
               verdicts) );
        ("counters", J.Obj (List.map (fun (n, d) -> (n, J.Int d)) deltas));
      ]
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str "dmx-bench/1");
        ("experiments", J.List (List.map experiment results));
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s (%d experiments)@." path (List.length results)

(* Each experiment runs in a child process, so none inherits the heap,
   caches or telemetry state an earlier one left behind: its timings and the
   counters the gate diffs do not depend on which experiments ran before
   (a shared heap grown by E6's 200k rows skews E12's eviction floor). The
   child reports its wall-clock, verdicts and counter deltas back. *)
let run_isolated name f =
  Format.print_flush ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let before = Dmx_obs.Metrics.snapshot () in
    let (), secs = time f in
    let deltas =
      Report.counter_deltas ~before ~after:(Dmx_obs.Metrics.snapshot ())
    in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (name, secs, Report.take_verdicts (), deltas) [];
    close_out oc;
    exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let result = In_channel.input_all ic in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Marshal.from_string result 0
    | _ ->
      Fmt.epr "bench: experiment %s did not finish@." name;
      exit 1)

let () =
  let names = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  let chosen = if names = [] then List.map fst experiments else names in
  Fmt.pr "dmx benchmark harness — regenerating the paper's claims@.";
  Fmt.pr "(no quantitative tables exist in the paper; see EXPERIMENTS.md)@.";
  Dmx_obs.Metrics.set_enabled true;
  let results =
    List.filter_map
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> Some (run_isolated name f)
        | None ->
          Fmt.epr "unknown experiment %s@." name;
          None)
      chosen
  in
  write_bench_json ~path:"BENCH_CLAIMS.json" results;
  let failed =
    List.concat_map
      (fun (name, _, verdicts, _) ->
        List.filter_map
          (fun { Report.ok; message; _ } ->
            if ok then None else Some (name, message))
          verdicts)
      results
  in
  Fmt.pr "@.%s@.bench: done@." (String.make 78 '=');
  if failed <> [] then begin
    List.iter
      (fun (name, msg) -> Fmt.epr "bench gate FAILED [%s]: %s@." name msg)
      failed;
    exit 1
  end
