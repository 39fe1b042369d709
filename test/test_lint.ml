(* Self-test for the dmx-lint static pass: build small fixture trees that
   violate each invariant, run the linter library against them, and assert
   the file:line diagnostics. The last test lints the real source tree — the
   same run `dune build @lint` performs. *)

let ( / ) = Filename.concat

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (path / e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let write_file path content =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc content;
  close_out oc

let fixture_counter = ref 0

(* A minimal well-formed tree: one registered storage method, one registered
   attachment, a factory that mentions both. Tests then overlay violations. *)
let with_fixture_tree f =
  incr fixture_counter;
  let root =
    Filename.get_temp_dir_name ()
    / Fmt.str "dmx_lint_fixture_%d" !fixture_counter
  in
  rm_rf root;
  write_file (root / "lib/smethod/goodheap.ml")
    "let register () = 0\nlet log_op x = x\n";
  write_file (root / "lib/smethod/goodheap.mli") "val register : unit -> int\n";
  write_file (root / "lib/attach/goodindex.ml") "let register () = 1\n";
  write_file (root / "lib/attach/goodindex.mli") "val register : unit -> int\n";
  write_file (root / "lib/txn/goodtxn.ml") "let commit () = Ok ()\n";
  write_file (root / "lib/txn/goodtxn.mli") "val commit : unit -> (unit, string) result\n";
  write_file (root / "lib/wal/goodwal.ml") "let append () = 1\n";
  write_file (root / "lib/wal/goodwal.mli") "val append : unit -> int\n";
  write_file (root / "lib/db/db.ml")
    "let register_defaults () =\n\
    \  ignore (Dmx_smethod.Goodheap.register ());\n\
    \  ignore (Dmx_attach.Goodindex.register ())\n";
  write_file (root / "lib/db/db.mli") "val register_defaults : unit -> unit\n";
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

let run root = Lint_driver.run (Lint_driver.default_config ~root)

let check_diag what report ~rule ~file ~line =
  let found =
    List.exists
      (fun d ->
        d.Lint_diag.rule = rule && d.Lint_diag.file = file
        && d.Lint_diag.line = line)
      report.Lint_driver.violations
  in
  if not found then
    Alcotest.failf "%s: expected a %s diagnostic at %s:%d (got: %s)" what rule
      file line
      (String.concat "; "
         (List.map
            (fun d -> Fmt.str "%a" Lint_diag.pp d)
            report.Lint_driver.violations))

let test_clean_tree () =
  with_fixture_tree (fun root ->
      let report = run root in
      Alcotest.(check bool)
        (Fmt.str "clean fixture passes (got: %a)" Lint_driver.pp_report report)
        true (Lint_driver.ok report))

(* R1: a storage-method module with [val register] absent from the factory. *)
let test_unregistered_storage_method () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/smethod/bogus.ml") "let register () = 7\n";
      write_file (root / "lib/smethod/bogus.mli")
        "(* a storage method the factory forgot *)\nval register : unit -> int\n";
      let report = run root in
      Alcotest.(check bool) "violations found" false (Lint_driver.ok report);
      check_diag "unregistered smethod" report ~rule:"vector-completeness"
        ~file:"lib/smethod/bogus.mli" ~line:2)

(* R1 on a sysview-shaped module: provider-registration entry points beside
   [val register] must not satisfy (or confuse) vector-completeness — only
   [<Mod>.register] in the factory does. *)
let test_sysview_stub_slots () =
  with_fixture_tree (fun root ->
      let mli =
        "val register : unit -> int\n\
         val register_provider : name:string -> (unit -> int list) -> unit\n\
         val provider_names : unit -> string list\n"
      in
      let ml =
        "let register () = 6\n\
         let register_provider ~name:_ _rows = ()\n\
         let provider_names () = []\n"
      in
      write_file (root / "lib/smethod/goodview.ml") ml;
      write_file (root / "lib/smethod/goodview.mli") mli;
      (* not in the factory yet: R1 fires on the [val register] line *)
      let report = run root in
      Alcotest.(check bool) "unmounted sysview flagged" false
        (Lint_driver.ok report);
      check_diag "unregistered sysview" report ~rule:"vector-completeness"
        ~file:"lib/smethod/goodview.mli" ~line:1;
      (* a factory that only calls the provider hook still misses R1 *)
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  Dmx_smethod.Goodview.register_provider ~name:\"wal\" (fun () -> [])\n";
      let report = run root in
      check_diag "provider hook is not registration" report
        ~rule:"vector-completeness" ~file:"lib/smethod/goodview.mli" ~line:1;
      (* the real registration call satisfies it *)
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  ignore (Dmx_smethod.Goodview.register ())\n";
      let report = run root in
      Alcotest.(check bool)
        (Fmt.str "mounted sysview passes (got: %a)" Lint_driver.pp_report
           report)
        true (Lint_driver.ok report))

(* R1 on a statement-store-shaped module: accumulation entry points
   ([record]/[entries]/[reset]) and a classified module-level table beside
   [val register] — only the factory's [<Mod>.register] call satisfies R1,
   and the classified global stays out of the strict R7 diagnostics. *)
let test_statement_store_slots () =
  with_fixture_tree (fun root ->
      let mli =
        "val register : unit -> int\n\
         val record : int -> unit\n\
         val entries : unit -> int list\n\
         val reset : unit -> unit\n"
      in
      let ml =
        "let table : (int, int) Hashtbl.t = Hashtbl.create 8 [@@dmx.global \
         \"ctx-owned\"]\n\
         let register () = 9\n\
         let record fp = Hashtbl.replace table fp fp\n\
         let entries () = Hashtbl.fold (fun _ v acc -> v :: acc) table []\n\
         let reset () = Hashtbl.reset table\n"
      in
      write_file (root / "lib/smethod/goodstore.ml") ml;
      write_file (root / "lib/smethod/goodstore.mli") mli;
      (* not in the factory: R1 fires on the [val register] line *)
      let report = run root in
      Alcotest.(check bool) "unmounted store flagged" false
        (Lint_driver.ok report);
      check_diag "unregistered store" report ~rule:"vector-completeness"
        ~file:"lib/smethod/goodstore.mli" ~line:1;
      (* a factory that only records into the store still misses R1 *)
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  Dmx_smethod.Goodstore.record 1;\n\
        \  Dmx_smethod.Goodstore.reset ()\n";
      let report = run root in
      check_diag "accumulation calls are not registration" report
        ~rule:"vector-completeness" ~file:"lib/smethod/goodstore.mli" ~line:1;
      (* the classified table never shows up as a strict R7 diagnostic *)
      Alcotest.(check int)
        "classified global is clean" 0
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "global-state")
              report.Lint_driver.violations));
      (* the real registration call satisfies R1 *)
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  ignore (Dmx_smethod.Goodstore.register ())\n";
      let report = run root in
      Alcotest.(check bool)
        (Fmt.str "mounted store passes (got: %a)" Lint_driver.pp_report report)
        true (Lint_driver.ok report))

(* R1 around the optional batch-scan slot: installing a producer via
   [Registry.set_sm_scan_batch] in the factory is not registration — only
   [<Mod>.register] satisfies vector-completeness — while a method that
   never installs one (riding the default run-chunking loop, like the
   fixture's Goodheap) owes R1 nothing beyond its [register] call. *)
let test_batch_scan_slots () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/smethod/goodbatch.ml")
        "let register () = 2\nlet scan_batch () = ()\n";
      write_file (root / "lib/smethod/goodbatch.mli")
        "val register : unit -> int\nval scan_batch : unit -> unit\n";
      (* not in the factory yet: R1 fires on the [val register] line *)
      let report = run root in
      Alcotest.(check bool) "unmounted batch method flagged" false
        (Lint_driver.ok report);
      check_diag "unregistered batch method" report ~rule:"vector-completeness"
        ~file:"lib/smethod/goodbatch.mli" ~line:1;
      (* a factory that only installs the batch slot still misses R1 *)
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  Dmx_core.Registry.set_sm_scan_batch 2 Dmx_smethod.Goodbatch.scan_batch\n";
      let report = run root in
      check_diag "slot install is not registration" report
        ~rule:"vector-completeness" ~file:"lib/smethod/goodbatch.mli" ~line:1;
      (* registration plus the optional slot passes; the default-loop method
         (Goodheap, no native producer) stays clean throughout *)
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  ignore (Dmx_smethod.Goodbatch.register ());\n\
        \  Dmx_core.Registry.set_sm_scan_batch 2 Dmx_smethod.Goodbatch.scan_batch\n";
      let report = run root in
      Alcotest.(check bool)
        (Fmt.str "batch method passes (got: %a)" Lint_driver.pp_report report)
        true (Lint_driver.ok report))

(* R2: a fresh failwith in an attachment. *)
let test_fresh_failwith_in_attach () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/attach/bad.ml")
        "let register () = 2\n\nlet on_insert () =\n  failwith \"kaboom\"\n";
      write_file (root / "lib/attach/bad.mli") "val register : unit -> int\nval on_insert : unit -> unit\n";
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ());\n\
        \  ignore (Dmx_attach.Bad.register ())\n";
      let report = run root in
      check_diag "fresh failwith" report ~rule:"error-discipline"
        ~file:"lib/attach/bad.ml" ~line:4)

(* R2 catches the whole banned set. *)
let test_banned_constructs () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/txn/nasty.ml")
        "let a () = invalid_arg \"x\"\n\
         let b () = assert false\n\
         let c x = Obj.magic x\n\
         let d () = exit 1\n";
      write_file (root / "lib/txn/nasty.mli")
        "val a : unit -> 'a\nval b : unit -> 'a\nval c : 'a -> 'b\nval d : unit -> 'a\n";
      let report = run root in
      List.iter
        (fun line ->
          check_diag "banned construct" report ~rule:"error-discipline"
            ~file:"lib/txn/nasty.ml" ~line)
        [ 1; 2; 3; 4 ])

(* R3: catch-all exception handlers in lib/txn. *)
let test_exception_swallowing () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/txn/swallow.ml")
        "let risky () = ()\n\
         let quiet () = try risky () with _ -> ()\n\
         let drops () = try risky () with e -> ignore e\n";
      write_file (root / "lib/txn/swallow.mli")
        "val risky : unit -> unit\nval quiet : unit -> unit\nval drops : unit -> unit\n";
      let report = run root in
      check_diag "with _ ->" report ~rule:"exception-swallowing"
        ~file:"lib/txn/swallow.ml" ~line:2;
      (* [with e -> ignore e] binds and uses the exception: not flagged *)
      Alcotest.(check int)
        "only the catch-all is flagged" 1
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "exception-swallowing")
              report.Lint_driver.violations)))

(* R4: page mutation without a WAL call in the same function body. *)
let test_wal_before_page () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/smethod/nolog.ml")
        "let register () = 3\n\n\
         let sneaky_write data payload =\n\
        \  Slotted.insert data payload\n\n\
         let logged_write ctx data payload =\n\
        \  ignore (Wal.append ctx 0 payload);\n\
        \  Slotted.insert data payload\n\n\
         let undo_write data payload = Slotted.insert_at data 0 payload\n\n\
         let batch_write ctx data payloads =\n\
        \  List.iter (fun p -> ignore (Ctx.log ctx p)) payloads;\n\
        \  Slotted.insert data payloads\n\n\
         let batch_sneaky data payloads =\n\
        \  ignore (Buffer_pool.alloc data);\n\
        \  Slotted.insert data payloads\n";
      write_file (root / "lib/smethod/nolog.mli")
        "val register : unit -> int\n\
         val sneaky_write : 'a -> 'b -> 'c\n\
         val logged_write : 'a -> 'b -> 'c -> 'd\n\
         val undo_write : 'a -> 'b -> 'c\n\
         val batch_write : 'a -> 'b -> 'c -> 'd\n\
         val batch_sneaky : 'a -> 'b -> 'c\n";
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_smethod.Nolog.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ())\n";
      let report = run root in
      check_diag "unlogged mutator" report ~rule:"wal-before-page"
        ~file:"lib/smethod/nolog.ml" ~line:3;
      (* a batch logged one record per payload (Ctx.log in a loop) is
         recognized; an unlogged batch mutator is still flagged *)
      check_diag "unlogged batch mutator" report ~rule:"wal-before-page"
        ~file:"lib/smethod/nolog.ml" ~line:16;
      Alcotest.(check int)
        "logged, undo and batch-logged functions pass" 2
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "wal-before-page")
              report.Lint_driver.violations)))

(* R4 is order-aware: a log call after the write does not excuse it, while
   one that comes first (here inside a closure defined ahead of the
   allocation, as heap placement does) covers the rest of the body. *)
let test_wal_before_page_order () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/smethod/latelog.ml")
        "let register () = 3\n\n\
         let late_log ctx data payload =\n\
        \  ignore (Slotted.delete data 0);\n\
        \  ignore (Ctx.log ctx payload)\n\n\
         let early_log ctx bp payload =\n\
        \  let fill data = ignore (Ctx.log ctx payload); Slotted.insert data payload in\n\
        \  fill (Buffer_pool.alloc bp)\n";
      write_file (root / "lib/smethod/latelog.mli")
        "val register : unit -> int\n\
         val late_log : 'a -> 'b -> 'c -> unit\n\
         val early_log : 'a -> 'b -> 'c -> 'd\n";
      write_file (root / "lib/db/db.ml")
        "let register_defaults () =\n\
        \  ignore (Dmx_smethod.Goodheap.register ());\n\
        \  ignore (Dmx_smethod.Latelog.register ());\n\
        \  ignore (Dmx_attach.Goodindex.register ())\n";
      let report = run root in
      check_diag "write before the log" report ~rule:"wal-before-page"
        ~file:"lib/smethod/latelog.ml" ~line:3;
      Alcotest.(check int)
        "only the late log is flagged" 1
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "wal-before-page")
              report.Lint_driver.violations)))

(* R5: a module without an interface. *)
let test_mli_coverage () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/wal/nomli.ml") "let x = 1\n";
      let report = run root in
      check_diag "missing mli" report ~rule:"mli-coverage"
        ~file:"lib/wal/nomli.ml" ~line:1)

(* R6: Emit.enter without Emit.exit in the same binding. *)
let test_span_pairing () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/wal/spans.ml")
        "let leaky name =\n\
        \  let sp = Emit.enter name in\n\
        \  ignore sp\n\n\
         let paired name =\n\
        \  let sp = Emit.enter name in\n\
        \  Emit.exit sp\n\n\
         let wrapped f = Emit.with_span \"ok\" f\n";
      write_file (root / "lib/wal/spans.mli")
        "val leaky : string -> unit\n\
         val paired : string -> unit\n\
         val wrapped : (unit -> 'a) -> 'a\n";
      let report = run root in
      check_diag "unpaired enter" report ~rule:"span-pairing"
        ~file:"lib/wal/spans.ml" ~line:2;
      (* the paired and with_span-only bindings are clean *)
      Alcotest.(check int)
        "only the leaky binding is flagged" 1
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "span-pairing")
              report.Lint_driver.violations)))

(* R7: module-level mutable state must carry a [@@dmx.global] class. *)
let test_global_state () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/txn/globals.ml")
        "let unmarked = ref 0\n\
         let counted = ref 0 [@@dmx.global \"UNSAFE\"]\n\
         let registry : (string, int) Hashtbl.t = Hashtbl.create 8 \
         [@@dmx.global \"config-immutable-after-setup\"]\n\
         let bogus = ref 0 [@@dmx.global \"sometimes\"]\n\
         let local_ok () = let r = ref 0 in incr r; !r\n";
      write_file (root / "lib/txn/globals.mli")
        "val unmarked : int ref\n\
         val counted : int ref\n\
         val registry : (string, int) Hashtbl.t\n\
         val bogus : int ref\n\
         val local_ok : unit -> int\n";
      let report = run root in
      (* strict: unclassified and invalid classes *)
      check_diag "unclassified global" report ~rule:"global-state"
        ~file:"lib/txn/globals.ml" ~line:1;
      check_diag "invalid class" report ~rule:"global-state"
        ~file:"lib/txn/globals.ml" ~line:4;
      (* the UNSAFE entry fails under its own rule *)
      check_diag "UNSAFE entry" report ~rule:"global-state-unsafe"
        ~file:"lib/txn/globals.ml" ~line:2;
      (* the well-classified registry and the function-local ref are clean *)
      Alcotest.(check int)
        "exactly two strict global-state diagnostics" 2
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "global-state")
              report.Lint_driver.violations));
      (* the inventory lists every module-level mutable binding *)
      Alcotest.(check int)
        "inventory has all four entries" 4
        (List.length report.Lint_driver.globals))

(* R8: lock acquisitions out of hierarchy order, and conflicting-mode
   re-acquires, across helper functions; a request that a mode already held
   at its level covers is a grant without a wait and stays clean. *)
let test_lock_order () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/txn/locky.ml")
        "let lock_rel ctx rid mode = Ctx.lock ctx ~mode (Lock_table.Relation \
         rid)\n\
         let lock_rec ctx rid key mode = Ctx.lock ctx ~mode \
         (Lock_table.Record (rid, key))\n\
         let good ctx rid key =\n\
        \  ignore (lock_rel ctx rid Lock_mode.IX);\n\
        \  ignore (lock_rec ctx rid key Lock_mode.X)\n\
         let bad ctx rid key =\n\
        \  ignore (lock_rec ctx rid key Lock_mode.X);\n\
        \  ignore (lock_rel ctx rid Lock_mode.IX)\n\
         let double ctx rid key =\n\
        \  ignore (lock_rec ctx rid key Lock_mode.S);\n\
        \  ignore (lock_rec ctx rid key Lock_mode.X)\n\
         let twice ctx rid key =\n\
        \  ignore (lock_rec ctx rid key Lock_mode.X);\n\
        \  ignore (lock_rec ctx rid key Lock_mode.X)\n\
         let cascade ctx rid key =\n\
        \  ignore (lock_rel ctx rid Lock_mode.IX);\n\
        \  ignore (lock_rec ctx rid key Lock_mode.X);\n\
        \  ignore (lock_rel ctx rid Lock_mode.IX)\n\
         let moved ctx rid key new_key =\n\
        \  ignore (lock_rel ctx rid Lock_mode.IX);\n\
        \  ignore (lock_rec ctx rid key Lock_mode.X);\n\
        \  ignore (lock_rec ctx rid new_key Lock_mode.X)\n\
         let cross ctx r1 r2 key =\n\
        \  ignore (Ctx.lock ctx ~mode:Lock_mode.IX (Lock_table.Relation r1));\n\
        \  ignore (Ctx.lock ctx ~mode:Lock_mode.X (Lock_table.Record (r1, key)));\n\
        \  ignore (Ctx.lock ctx ~mode:Lock_mode.IX (Lock_table.Relation r2))\n\
         let two_rels ctx r1 r2 =\n\
        \  ignore (Ctx.lock ctx ~mode:Lock_mode.X (Lock_table.Relation r1));\n\
        \  ignore (Ctx.lock ctx ~mode:Lock_mode.X (Lock_table.Relation r2))\n\
         let shadowed ctx r1 r2 =\n\
        \  let r = r1 in\n\
        \  ignore (Ctx.lock ctx ~mode:Lock_mode.X (Lock_table.Relation r));\n\
        \  let r = r2 in\n\
        \  ignore (Ctx.lock ctx ~mode:Lock_mode.X (Lock_table.Relation r))\n";
      write_file (root / "lib/txn/locky.mli")
        "val lock_rel : 'a -> int -> 'b -> 'c\n\
         val lock_rec : 'a -> int -> 'b -> 'c -> 'd\n\
         val good : 'a -> int -> 'b -> unit\n\
         val bad : 'a -> int -> 'b -> unit\n\
         val double : 'a -> int -> 'b -> unit\n\
         val twice : 'a -> int -> 'b -> unit\n\
         val cascade : 'a -> int -> 'b -> unit\n\
         val moved : 'a -> int -> 'b -> 'b -> unit\n\
         val cross : 'a -> int -> int -> 'b -> unit\n\
         val two_rels : 'a -> int -> int -> unit\n\
         val shadowed : 'a -> int -> int -> unit\n";
      let report = run root in
      (* [bad] acquires the relation lock while holding a record lock; the
         diagnostic anchors at the acquisition site inside the helper *)
      check_diag "hierarchy inversion" report ~rule:"lock-order"
        ~file:"lib/txn/locky.ml" ~line:1;
      (* [double] upgrades a record-level S to X: not covered, conflicts *)
      check_diag "conflicting re-acquire" report ~rule:"lock-order"
        ~file:"lib/txn/locky.ml" ~line:2;
      (* [cross] locks a second relation after a record of the first: the
         IX it holds is on another resource, so it covers nothing *)
      check_diag "second relation after a record" report ~rule:"lock-order"
        ~file:"lib/txn/locky.ml" ~line:26;
      (* [two_rels]: X on one relation does not cover X on another *)
      check_diag "X on a second relation" report ~rule:"lock-order"
        ~file:"lib/txn/locky.ml" ~line:29;
      (* [shadowed]: the second [r] is another binding, so the first X does
         not cover it *)
      check_diag "a rebound name is another resource" report
        ~rule:"lock-order" ~file:"lib/txn/locky.ml" ~line:34;
      Alcotest.(check int)
        "exactly five lock-order diagnostics ([good], [twice], [cascade] \
         and [moved] are clean)"
        5
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "lock-order")
              report.Lint_driver.violations));
      (* the derived order graph records relation -> record and stays
         cycle-free: the deviation must not double-report as a cycle *)
      Alcotest.(check bool)
        "relation -> record edge derived" true
        (List.exists
           (fun ((a, b), _) -> a = 1 && b = 2)
           report.Lint_driver.lock.Lint_callgraph.lr_edges);
      Alcotest.(check int)
        "no cycles" 0
        (List.length report.Lint_driver.lock.Lint_callgraph.lr_cycles))

(* A bare name bound in a body is local: a record field pun or a parameter
   that shares a top-level function's name is no call to it. Here a call
   to [lock_step] under the record lock would be a hierarchy violation.
   [walk] recurses on ever deeper field paths, and the analysis ends. *)
let test_lock_order_scope () =
  with_fixture_tree (fun root ->
      let lock_step =
        "let lock_step ctx rid =\n\
        \  Ctx.lock ctx ~mode:Lock_mode.IX (Lock_table.Relation rid)\n"
      and record_lock =
        "  ignore (Ctx.lock ctx ~mode:Lock_mode.X (Lock_table.Record (rid, \
         key)));\n"
      in
      write_file (root / "lib/txn/punny.ml")
        ("type r = { lock_step : int }\n" ^ lock_step
       ^ "let punned ctx rid key lock_step =\n" ^ record_lock
       ^ "  { lock_step }\n\
          let shadowed ctx rid key lock_step =\n" ^ record_lock
       ^ "  lock_step ctx rid\n\
          let rec walk ctx node =\n\
         \  ignore (Ctx.lock ctx ~mode:Lock_mode.S (Lock_table.Relation \
          node.id));\n\
         \  walk ctx node.parent\n");
      write_file (root / "lib/txn/punny.mli")
        "type r = { lock_step : int }\n\
         val lock_step : 'a -> int -> 'b\n\
         val punned : 'a -> int -> 'b -> int -> r\n\
         val shadowed : 'a -> int -> 'b -> ('a -> int -> 'c) -> 'c\n\
         val walk : 'a -> 'b -> 'c\n";
      write_file (root / "lib/txn/really.ml")
        (lock_step ^ "let calls ctx rid key =\n" ^ record_lock
       ^ "  lock_step ctx rid\n");
      write_file (root / "lib/txn/really.mli")
        "val lock_step : 'a -> int -> 'b\n\
         val calls : 'a -> int -> 'b -> 'c\n";
      let report = run root in
      let lock_order file =
        List.filter
          (fun d ->
            d.Lint_diag.rule = "lock-order" && d.Lint_diag.file = file)
          report.Lint_driver.violations
      in
      check_diag "a real call is an edge" report ~rule:"lock-order"
        ~file:"lib/txn/really.ml" ~line:2;
      Alcotest.(check int)
        "a pun and a parameter are no call" 0
        (List.length (lock_order "lib/txn/punny.ml")))

(* R9: WAL logging hidden behind a helper that the syntactic R4 cannot see
   through — the exempt-named helper mutates, the caller must log first. *)
let test_wal_interproc () =
  with_fixture_tree (fun root ->
      write_file (root / "lib/smethod/deep.ml")
        "let unlogged_poke data payload = Slotted.insert data payload\n\n\
         let covert ctx data payload =\n\
        \  ignore ctx;\n\
        \  unlogged_poke data payload\n\n\
         let overt ctx data payload =\n\
        \  ignore (Ctx.log ctx payload);\n\
        \  unlogged_poke data payload\n";
      write_file (root / "lib/smethod/deep.mli")
        "val unlogged_poke : 'a -> 'b -> 'c\n\
         val covert : 'a -> 'b -> 'c -> 'd\n\
         val overt : 'a -> 'b -> 'c -> 'd\n";
      let report = run root in
      (* the syntactic R4 sees no page mutator in [covert]'s body and the
         helper is R4-exempt by name: only the interprocedural pass fires *)
      Alcotest.(check int)
        "R4 stays silent" 0
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "wal-before-page")
              report.Lint_driver.violations));
      check_diag "unlogged path through helper" report ~rule:"wal-interproc"
        ~file:"lib/smethod/deep.ml" ~line:3;
      (* [overt] logs before the helper mutates: clean *)
      Alcotest.(check int)
        "exactly one wal-interproc diagnostic" 1
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "wal-interproc")
              report.Lint_driver.violations)))

(* R9 at a DDL entry: the page a create allocates for its fresh structure
   is no unlogged mutation, but a write to an existing page is, and an
   allocation under a DML entry still is. *)
let test_wal_interproc_ddl () =
  with_fixture_tree (fun root ->
      let entry file body =
        write_file (root / ("lib/attach/" ^ file ^ ".ml")) body;
        write_file (root / ("lib/attach/" ^ file ^ ".mli")) "val helper : 'a -> 'b\n"
      in
      entry "fresh_ok"
        "let helper bp = Buffer_pool.alloc bp\n\
         let create_instance bp = helper bp\n";
      entry "fresh_poke"
        "let helper data = Slotted.update data 0 \"x\"\n\
         let create_instance data = helper data\n";
      entry "fresh_dml"
        "let helper bp = Buffer_pool.alloc bp\n\
         let on_insert bp = helper bp\n";
      let report = run root in
      check_diag "existing page written under create_instance" report
        ~rule:"wal-interproc" ~file:"lib/attach/fresh_poke.ml" ~line:2;
      check_diag "allocation under on_insert" report ~rule:"wal-interproc"
        ~file:"lib/attach/fresh_dml.ml" ~line:2;
      Alcotest.(check int)
        "the allocating create_instance is clean" 2
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "wal-interproc")
              report.Lint_driver.violations)))

(* R8's string tables are Lock_mode's: a drift would make the analysis
   judge modes the lock table does not. *)
let test_mode_tables () =
  let modes = Dmx_lock.Lock_mode.[ IS; IX; S; SIX; X ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let sa = Dmx_lock.Lock_mode.to_string a
          and sb = Dmx_lock.Lock_mode.to_string b in
          Alcotest.(check bool)
            (Fmt.str "conflict %s %s" sa sb)
            (not (Dmx_lock.Lock_mode.compatible a b))
            (Lint_callgraph.modes_conflict sa sb);
          Alcotest.(check bool)
            (Fmt.str "leq %s %s" sa sb)
            (Dmx_lock.Lock_mode.leq a b)
            (Lint_callgraph.modes_leq sa sb))
        modes)
    modes

(* R2 over CLI dirs: [exit] is the interface there, [failwith] is not. *)
let test_cli_discipline () =
  with_fixture_tree (fun root ->
      write_file (root / "bin/tool.ml")
        "let usage () = exit 2\nlet boom () = failwith \"no\"\n";
      let report = run root in
      check_diag "failwith in bin" report ~rule:"error-discipline"
        ~file:"bin/tool.ml" ~line:2;
      Alcotest.(check int)
        "exit in bin is allowed" 1
        (List.length
           (List.filter
              (fun d -> d.Lint_diag.rule = "error-discipline")
              report.Lint_driver.violations)))

(* The merged tree itself must lint clean — the same invocation
   `dune build @lint` runs. Test cwd is
   _build/default/test, so the copied source tree sits one level up. *)
let test_real_tree_clean () =
  let report =
    Lint_driver.run (Lint_driver.default_config ~root:"..")
  in
  Alcotest.(check bool)
    (Fmt.str "real tree lints clean (got: %a)" Lint_driver.pp_report report)
    true (Lint_driver.ok report);
  if report.Lint_driver.checked_files < 20 then
    Alcotest.failf "suspiciously few files checked (%d) — wrong root?"
      report.Lint_driver.checked_files

let suite =
  [
    Alcotest.test_case "clean fixture tree passes" `Quick test_clean_tree;
    Alcotest.test_case "R1: unregistered storage method" `Quick
      test_unregistered_storage_method;
    Alcotest.test_case "R1: sysview stub slots" `Quick test_sysview_stub_slots;
    Alcotest.test_case "R1: statement store slots" `Quick
      test_statement_store_slots;
    Alcotest.test_case "R1: batch-scan slot install is not registration" `Quick
      test_batch_scan_slots;
    Alcotest.test_case "R2: fresh failwith in attach" `Quick
      test_fresh_failwith_in_attach;
    Alcotest.test_case "R2: full banned set" `Quick test_banned_constructs;
    Alcotest.test_case "R3: catch-all handler in txn" `Quick
      test_exception_swallowing;
    Alcotest.test_case "R4: page mutation without WAL" `Quick
      test_wal_before_page;
    Alcotest.test_case "R4: a log after the write does not excuse it" `Quick
      test_wal_before_page_order;
    Alcotest.test_case "R5: missing mli" `Quick test_mli_coverage;
    Alcotest.test_case "R6: unpaired Emit.enter" `Quick test_span_pairing;
    Alcotest.test_case "R7: global-state inventory and classes" `Quick
      test_global_state;
    Alcotest.test_case "R8: lock-order hierarchy and re-acquire" `Quick
      test_lock_order;
    Alcotest.test_case "R8: a local name is no call" `Quick
      test_lock_order_scope;
    Alcotest.test_case "R9: WAL logging hidden behind a helper" `Quick
      test_wal_interproc;
    Alcotest.test_case "R9: a DDL entry's fresh pages" `Quick
      test_wal_interproc_ddl;
    Alcotest.test_case "R8: mode tables match Lock_mode" `Quick
      test_mode_tables;
    Alcotest.test_case "R2 in CLI dirs: exit allowed, failwith not" `Quick
      test_cli_discipline;
    Alcotest.test_case "real tree lints clean" `Quick test_real_tree_clean;
  ]
