(* The torture loop: seeded workload -> injected fault -> simulated power
   loss -> reopen (restart recovery) -> attachment-consistency oracle.

   Everything is deterministic: the workload script comes from the seed, the
   fault schedule from the (mode, point) pair, and the page-store op stream
   from the two together — so every failure is replayable from
   "--replay SEED:POINT" alone. *)

open Dmx_page
open Dmx_core
module W = Chaos_workload
module M = Chaos_model

exception Chaos_failure of string

let failf fmt = Fmt.kstr (fun s -> raise (Chaos_failure s)) fmt

type config = {
  seed : int;
  n_txns : int;
  ops_per_txn : int;
  pool_capacity : int;
      (* deliberately tiny so mid-transaction evictions exercise the steal
         path (WAL flush before a dirty page leaves the pool) *)
  recovery_crash_gap : int option;
      (* also crash the recovery run this many ops after reopen *)
  introspect : bool;
      (* after the oracle, ask the recovered engine about itself through the
         dmx_* system views: no leaked txns, no foreign lock grants *)
  checkpoint_every : int;
      (* harness-driven checkpoints: one Services.checkpoint every this
         many workload operations, deliberately landing mid-transaction so
         the pool is dirty and the active list non-empty; 0 = off
         (the default, keeping pre-checkpoint fault schedules unchanged) *)
  chaos : Undo.chaos;
      (* the recovery bug every database of the episode is built with;
         Undo.no_chaos outside mutation runs *)
}

let default_config ~seed =
  { seed; n_txns = 5; ops_per_txn = 6; pool_capacity = 8;
    recovery_crash_gap = None; introspect = false; checkpoint_every = 0;
    chaos = Undo.no_chaos }

type fault_plan =
  | No_fault
  | Crash_at of int
  | Write_error_nth of int
  | Sync_error_nth of int
  | Torn_write_nth of int
  | Truncate_crash_at of int
      (* crash at the nth log-truncation phase event (Trunc_begin /
         Trunc_rename / Trunc_done across all checkpoints of the episode) *)
  | Crash_after_op of int
      (* crash right after the nth workload operation — a harness-level
         crash point, so the same plan lands at the same committed prefix
         whether or not checkpoints run in between (the restart-equivalence
         differential depends on this) *)

let pp_plan ppf = function
  | No_fault -> Fmt.string ppf "no-fault"
  | Crash_at k -> Fmt.pf ppf "crash@%d" k
  | Write_error_nth n -> Fmt.pf ppf "write-error#%d" n
  | Sync_error_nth n -> Fmt.pf ppf "sync-error#%d" n
  | Torn_write_nth n -> Fmt.pf ppf "torn-write#%d" n
  | Truncate_crash_at n -> Fmt.pf ppf "truncate-crash@%d" n
  | Crash_after_op n -> Fmt.pf ppf "crash-after-op@%d" n

type episode = {
  ep_ops : int;  (* page-store ops consumed by the workload itself *)
  ep_writes : int;
  ep_syncs : int;
  ep_fault : string option;
  ep_recovery_crashes : int;
  ep_checkpoints : int;  (* checkpoints the harness drove *)
  ep_trunc_phases : int;  (* truncation phase events (crash-point domain) *)
  ep_redo_applied : int;  (* winners' records the last restart's redo applied *)
  ep_failures : string list;
}

(* ---- schema ---- *)

let req what = function
  | Ok v -> v
  | Error e -> failf "%s: %a" what Error.pp e

let setup_schema services (model : M.t) =
  let ctx = Services.begin_txn services in
  ignore
    (req "create p"
       (Dmx_ddl.Ddl.create_relation ctx ~name:"p" ~schema:W.parent_schema
          ~storage_method:"heap" ()));
  req "attach pk"
    (Dmx_ddl.Ddl.create_attachment ctx ~relation:"p"
       ~attachment_type:"btree_index" ~name:"pk"
       ~attrs:[ ("fields", "id"); ("unique", "true") ]
       ());
  req "attach hdept"
    (Dmx_ddl.Ddl.create_attachment ctx ~relation:"p"
       ~attachment_type:"hash_index" ~name:"hdept"
       ~attrs:[ ("fields", "dept") ]
       ());
  req "attach prt"
    (Dmx_ddl.Ddl.create_attachment ctx ~relation:"p"
       ~attachment_type:"rtree_index" ~name:"prt"
       ~attrs:[ ("rect", "xlo,ylo,xhi,yhi") ]
       ());
  req "attach pagg"
    (Dmx_ddl.Ddl.create_attachment ctx ~relation:"p" ~attachment_type:"agg"
       ~name:"pagg"
       ~attrs:[ ("group", "dept"); ("sum", "salary") ]
       ());
  req "attach pstats"
    (Dmx_ddl.Ddl.create_attachment ctx ~relation:"p" ~attachment_type:"stats"
       ~name:"pstats"
       ~attrs:[ ("fields", "salary") ]
       ());
  ignore
    (req "create c"
       (Dmx_ddl.Ddl.create_relation ctx ~name:"c" ~schema:W.child_schema
          ~storage_method:"btree" ~attrs:[ ("key", "id") ] ()));
  req "attach camt"
    (Dmx_ddl.Ddl.create_attachment ctx ~relation:"c"
       ~attachment_type:"btree_index" ~name:"camt"
       ~attrs:[ ("fields", "amt") ]
       ());
  req "attach cfk"
    (Dmx_ddl.Ddl.create_attachment ctx ~relation:"c" ~attachment_type:"refint"
       ~name:"cfk"
       ~attrs:
         [ ("fields", "pid"); ("parent", "p"); ("parent_fields", "id");
           ("on_delete", "cascade") ]
       ());
  ignore
    (req "create b"
       (Dmx_ddl.Ddl.create_relation ctx ~name:"b" ~schema:W.bulk_schema
          ~storage_method:"heap" ()));
  Services.commit services ctx;
  M.commit model

(* ---- one operation, checked against the model's expectation ---- *)

let record_of tgt ~id ~pid ~v =
  match tgt with
  | W.Parent -> W.parent_record ~id ~v
  | W.Child -> W.child_record ~id ~pid ~v

let apply_op ctx (model : M.t) descp descc descb sp_counter op =
  let desc = function W.Parent -> descp | W.Child -> descc in
  match op with
  | W.Savepoint ->
    incr sp_counter;
    let name = Fmt.str "sp%d" !sp_counter in
    Services.savepoint ctx name;
    M.savepoint model name
  | W.Rollback -> begin
    match M.top_savepoint model with
    | None -> ()
    | Some name ->
      Services.rollback_to ctx name;
      M.rollback_to model name
  end
  | W.Insert { tgt; id; pid; v } -> begin
    let expect = M.plan_insert model.cur tgt ~id ~pid in
    match (Relation.insert ctx (desc tgt) (record_of tgt ~id ~pid ~v), expect)
    with
    | Ok key, M.Expect_ok ->
      model.cur <- M.apply_insert model.cur tgt ~id ~pid ~v ~key
    | Error _, M.Expect_err -> ()
    | Ok _, M.Expect_err -> failf "op %a: succeeded but must fail" W.pp_op op
    | Error e, M.Expect_ok ->
      failf "op %a: failed unexpectedly: %a" W.pp_op op Error.pp e
  end
  | W.Update { tgt; id; pid; v } -> begin
    match M.key_of model.cur tgt id with
    | None -> () (* no such row: nothing to aim the update at *)
    | Some key -> begin
      let expect = M.plan_update model.cur tgt ~id ~pid in
      match
        (Relation.update ctx (desc tgt) key (record_of tgt ~id ~pid ~v), expect)
      with
      | Ok key', M.Expect_ok ->
        model.cur <- M.apply_update model.cur tgt ~id ~pid ~v ~key:key'
      | Error _, M.Expect_err -> ()
      | Ok _, M.Expect_err -> failf "op %a: succeeded but must fail" W.pp_op op
      | Error e, M.Expect_ok ->
        failf "op %a: failed unexpectedly: %a" W.pp_op op Error.pp e
    end
  end
  | W.Insert_many { first; count; v } -> begin
    let records = Array.init count (fun i -> W.bulk_record ~id:(first + i) ~v) in
    match Relation.insert_many ctx descb records with
    | Ok keys -> model.cur <- M.apply_insert_many model.cur ~first ~v keys
    | Error e -> failf "op %a: failed unexpectedly: %a" W.pp_op op Error.pp e
  end
  | W.Delete { tgt; id } -> begin
    match M.key_of model.cur tgt id with
    | None -> ()
    | Some key -> begin
      match Relation.delete ctx (desc tgt) key with
      | Ok _ -> model.cur <- M.apply_delete model.cur tgt ~id
      | Error e -> failf "op %a: failed unexpectedly: %a" W.pp_op op Error.pp e
    end
  end

let run_txn ?(after_op = ignore) services (model : M.t) (script : W.txn_script)
    =
  let ctx = Services.begin_txn services in
  M.begin_txn model;
  let descp = req "find p" (Dmx_ddl.Ddl.find_relation ctx "p") in
  let descc = req "find c" (Dmx_ddl.Ddl.find_relation ctx "c") in
  let descb = req "find b" (Dmx_ddl.Ddl.find_relation ctx "b") in
  let sp = ref 0 in
  match
    List.iter
      (fun op ->
        apply_op ctx model descp descc descb sp op;
        after_op ())
      script.W.tx_ops;
    if script.W.tx_abort then begin
      Services.abort services ctx;
      `Aborted
    end
    else begin
      Services.commit services ctx;
      `Committed
    end
  with
  | `Aborted -> M.rollback_to_committed model
  | `Committed -> M.commit model
  | exception (Fault_disk.Injected { fault; _ } as e)
    when ctx.Ctx.txn.Dmx_txn.Txn.state = Dmx_txn.Txn.Committed ->
    (* The fault hit a post-commit deferred action (heap slot release pins
       a page): the commit record is already durable, so the transaction
       is a winner. *)
    M.commit model;
    (match fault with
    | Fault_disk.(Write_error | Sync_error) -> ()
    | _ -> raise e)
  | exception
      Fault_disk.Injected
        { fault = Fault_disk.(Write_error | Sync_error); _ } ->
    (* A one-shot I/O error: whatever the operation was, the transaction is
       poisoned — abort it (the error was one-shot, so the rollback I/O
       succeeds) and carry on with the rest of the workload. *)
    if Dmx_txn.Txn.is_active ctx.Ctx.txn then Services.abort services ctx;
    M.rollback_to_committed model

(* ---- liveness probe: a recovered system must accept new work ---- *)

let probe services =
  let ctx = Services.begin_txn services in
  let res =
    match Dmx_ddl.Ddl.find_relation ctx "p" with
    | Error _ -> [] (* DDL never committed; nothing to probe *)
    | Ok descp -> begin
      match Relation.insert ctx descp (W.parent_record ~id:100_000 ~v:1) with
      | Error e -> [ Fmt.str "probe insert failed: %s" (Error.to_string e) ]
      | Ok key -> begin
        match Relation.delete ctx descp key with
        | Error e -> [ Fmt.str "probe delete failed: %s" (Error.to_string e) ]
        | Ok _ -> []
      end
    end
  in
  Services.commit services ctx;
  res

(* ---- introspection check: the recovered engine audits itself ---- *)

(* Mount the dmx_* system views and query dmx_txns/dmx_locks through the
   standard select path (planner + executor): after recovery the engine's
   own accounting must show exactly one active transaction — the checker's —
   and no lock grants held by anyone else. Runs after the workload's op
   counts are captured and with the fault plan disarmed, so the extra
   catalog I/O cannot perturb fault schedules. *)
let introspect_check services =
  let mount_err =
    let ctx = Services.begin_txn services in
    match Dmx_db.Db.mount_system_views ctx with
    | Ok _ ->
      Services.commit services ctx;
      None
    | Error e ->
      Services.abort services ctx;
      Some (Fmt.str "introspect: mounting system views failed: %s"
              (Error.to_string e))
  in
  match mount_err with
  | Some msg -> [ msg ]
  | None ->
    let ctx = Services.begin_txn services in
    let my_id = ctx.Ctx.txn.Dmx_txn.Txn.id in
    let query q =
      match Dmx_query.Planner.translate ctx q with
      | Error _ as e -> e
      | Ok plan -> Dmx_query.Executor.run ctx plan ()
    in
    let failures = ref [] in
    let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
    let int_of v =
      match v with Dmx_value.Value.Int i -> Int64.to_int i | _ -> -1
    in
    (match
       query (Dmx_query.Query.select ~where:"state = 'active'" "dmx_txns")
     with
    | Error e -> fail "introspect: dmx_txns: %s" (Error.to_string e)
    | Ok rows -> (
      match List.map (fun r -> int_of r.(0)) rows with
      | [ id ] when id = my_id -> ()
      | ids ->
        fail "introspect: dmx_txns shows leaked active txns [%s] (checker %d)"
          (String.concat "," (List.map string_of_int ids))
          my_id));
    (match query (Dmx_query.Query.select "dmx_locks") with
    | Error e -> fail "introspect: dmx_locks: %s" (Error.to_string e)
    | Ok rows ->
      List.iter
        (fun r ->
          let holder = int_of r.(0) in
          if holder <> my_id then
            fail "introspect: dmx_locks shows txn %d still holding %s (%s)"
              holder
              (match r.(1) with Dmx_value.Value.String s -> s | _ -> "?")
              (match r.(4) with Dmx_value.Value.String s -> s | _ -> "?"))
        rows);
    Services.commit services ctx;
    List.rev !failures

(* ---- one episode ---- *)

let apply_plan fd = function
  | No_fault -> ()
  | Crash_at k -> Fault_disk.plan_crash_at fd k
  | Write_error_nth n -> Fault_disk.plan_write_error fd ~nth:n
  | Sync_error_nth n -> Fault_disk.plan_sync_error fd ~nth:n
  | Torn_write_nth n -> Fault_disk.plan_torn_write fd ~nth:n
  | Truncate_crash_at _ | Crash_after_op _ ->
    () (* armed at the harness level, not inside the fault disk *)

let run_episode cfg plan =
  Chaos_util.with_temp_dir ~prefix:"dmx_chaos" (fun dir ->
      Dmx_db.Db.register_defaults ();
      let fd = Fault_disk.create () in
      apply_plan fd plan;
      let script =
        W.generate ~seed:cfg.seed ~n_txns:cfg.n_txns
          ~ops_per_txn:cfg.ops_per_txn
      in
      let model = M.create () in
      let fault = ref None in
      let recovery_crashes = ref 0 in
      let services = ref None in
      let live () =
        match !services with
        | Some s -> s
        | None -> failf "harness bug: services used before setup"
      in
      let trunc_phases = ref 0 in
      (* only the workload's truncations are crash points: the oracle's
         engine checkpoints again when it closes *)
      let observing = ref true in
      let setup_services () =
        let s =
          Services.setup ~dir ~disk:(Fault_disk.disk fd)
            ~pool_capacity:cfg.pool_capacity ~chaos:cfg.chaos ()
        in
        (* Count truncation phases always (they are the crash-point domain
           for truncate sweeps) and, when the plan says so, turn the nth
           phase event into a power loss in the middle of the rewrite. *)
        Dmx_wal.Wal.set_truncate_observer s.Services.wal (fun _phase ->
            if !observing then incr trunc_phases;
            match plan with
            | Truncate_crash_at n when !observing && !trunc_phases = n ->
              raise
                (Fault_disk.Injected
                   { op = Fault_disk.op_count fd; fault = Fault_disk.Crash })
            | _ -> ());
        s
      in
      (* Harness-driven checkpoints: fire every [checkpoint_every]
         workload ops, i.e. mid-transaction, so the pool is dirty and the
         active list non-trivial.  Deliberately NOT wired
         through the auto commit hook: a crash inside a post-commit
         checkpoint would leave the engine committed but the model not,
         turning the oracle into a false alarm. *)
      let op_counter = ref 0 in
      let checkpoints = ref 0 in
      let after_op () =
        incr op_counter;
        if cfg.checkpoint_every > 0
           && !op_counter mod cfg.checkpoint_every = 0
        then begin
          ignore (Services.checkpoint (live ()));
          incr checkpoints
        end;
        match plan with
        | Crash_after_op n when !op_counter = n ->
          raise
            (Fault_disk.Injected
               { op = Fault_disk.op_count fd; fault = Fault_disk.Crash })
        | _ -> ()
      in
      let crashed =
        (* The very first op can already be the fault point: the initial
           [setup]'s empty-log recovery syncs the store. *)
        match
          services := Some (setup_services ());
          setup_schema (live ()) model;
          List.iter (run_txn ~after_op (live ()) model) script.W.w_txns
        with
        | () -> false
        | exception Fault_disk.Injected { op; fault = f } ->
          fault := Some (op, f);
          true
      in
      let workload_ops = Fault_disk.op_count fd in
      let workload_writes = Fault_disk.write_count fd in
      let workload_syncs = Fault_disk.sync_count fd in
      if crashed then begin
        (* Power loss: volatile state vanishes, the store reverts to its
           durable image, and a fresh [setup] runs restart recovery. ([setup]
           cleans up after itself when the fault hit inside it.) *)
        (match !services with
        | Some s -> Services.simulate_crash s
        | None -> ());
        Fault_disk.crash fd;
        M.rollback_to_committed model;
        Fault_disk.clear_plan fd;
        (match cfg.recovery_crash_gap with
        | Some gap -> Fault_disk.plan_crash_at fd (Fault_disk.op_count fd + gap)
        | None -> ());
        let rec reopen () =
          match setup_services () with
          | s -> services := Some s
          | exception Fault_disk.Injected _ ->
            (* crashed again, mid-recovery; recovery must be idempotent *)
            incr recovery_crashes;
            Fault_disk.crash fd;
            Fault_disk.clear_plan fd;
            reopen ()
        in
        reopen ();
        (* recovery may finish in fewer ops than the planned second crash;
           disarm so the leftover schedule cannot fire inside the oracle *)
        Fault_disk.clear_plan fd
      end;
      observing := false;
      let redo_applied =
        match (live ()).Services.last_recovery with
        | Some a when crashed -> a.Dmx_wal.Recovery.redo_applied
        | Some _ | None -> 0
      in
      let failures =
        Chaos_oracle.check (live ()) ~committed:model.M.committed
        @ probe (live ())
      in
      let failures =
        if cfg.introspect then failures @ introspect_check (live ())
        else failures
      in
      Services.close (live ());
      {
        ep_ops = workload_ops;
        ep_writes = workload_writes;
        ep_syncs = workload_syncs;
        ep_fault =
          Option.map
            (fun (op, f) -> Fmt.str "%s@op%d" (Fault_disk.fault_to_string f) op)
            !fault;
        ep_recovery_crashes = !recovery_crashes;
        ep_checkpoints = !checkpoints;
        ep_trunc_phases = !trunc_phases;
        ep_redo_applied = redo_applied;
        ep_failures = failures;
      })

(* Episodes that die with an unplanned exception (including Chaos_failure
   expectation mismatches) are themselves oracle findings. *)
let safe_episode cfg plan =
  match run_episode cfg plan with
  | ep -> ep
  | exception Chaos_failure msg ->
    { ep_ops = 0; ep_writes = 0; ep_syncs = 0; ep_fault = None;
      ep_recovery_crashes = 0; ep_checkpoints = 0; ep_trunc_phases = 0;
      ep_redo_applied = 0; ep_failures = [ "expectation mismatch: " ^ msg ] }
  | exception Fault_disk.Injected { op; fault } ->
    { ep_ops = 0; ep_writes = 0; ep_syncs = 0; ep_fault = None;
      ep_recovery_crashes = 0; ep_checkpoints = 0; ep_trunc_phases = 0;
      ep_redo_applied = 0; ep_failures =
        [ Fmt.str "fault %s@op%d escaped the harness"
            (Fault_disk.fault_to_string fault) op ] }
  | exception e ->
    (* e.g. a torn page decoding as garbage deep inside recovery or the
       oracle's scans: the system broke, which is exactly what the report
       must say — a sweep never dies on one bad point *)
    { ep_ops = 0; ep_writes = 0; ep_syncs = 0; ep_fault = None;
      ep_recovery_crashes = 0; ep_checkpoints = 0; ep_trunc_phases = 0;
      ep_redo_applied = 0; ep_failures = [ "episode raised: " ^ Printexc.to_string e ] }

(* ---- sweeps ---- *)

type mode =
  | Mode_crash
  | Mode_io_error
  | Mode_torn
  | Mode_ckpt_crash
  | Mode_truncate_crash

let mode_to_string = function
  | Mode_crash -> "crash"
  | Mode_io_error -> "io-error"
  | Mode_torn -> "torn"
  | Mode_ckpt_crash -> "ckpt-crash"
  | Mode_truncate_crash -> "truncate-crash"

let mode_of_string = function
  | "crash" -> Some Mode_crash
  | "io-error" | "io_error" -> Some Mode_io_error
  | "torn" -> Some Mode_torn
  | "ckpt-crash" | "ckpt_crash" -> Some Mode_ckpt_crash
  | "truncate-crash" | "truncate_crash" -> Some Mode_truncate_crash
  | _ -> None

type point_result = {
  pt_plan : fault_plan;
  pt_failures : string list;
}

type seed_report = {
  sr_seed : int;
  sr_mode : mode;
  sr_clean_ops : int;
  sr_points : int;
  sr_redo_applied : int;
  sr_bad : point_result list;
}

let points_of_mode mode (clean : episode) =
  match mode with
  | Mode_crash -> List.init clean.ep_ops (fun i -> Crash_at (i + 1))
  | Mode_io_error ->
    List.init clean.ep_writes (fun i -> Write_error_nth (i + 1))
    @ List.init clean.ep_syncs (fun i -> Sync_error_nth (i + 1))
  | Mode_torn -> List.init clean.ep_writes (fun i -> Torn_write_nth (i + 1))
  | Mode_ckpt_crash ->
    (* every disk op is a candidate power-loss point, and with checkpoints
       interleaved a slice of those points land inside the checkpoint's
       page writes and sync, its record's flush, and truncation itself *)
    List.init clean.ep_ops (fun i -> Crash_at (i + 1))
  | Mode_truncate_crash ->
    List.init clean.ep_trunc_phases (fun i -> Truncate_crash_at (i + 1))

let sweep ?(progress = ignore) cfg mode ~recovery_crash =
  let cfg =
    (* the checkpoint modes are meaningless without checkpoints: default the
       cadence on rather than silently sweeping zero points *)
    match mode with
    | (Mode_ckpt_crash | Mode_truncate_crash) when cfg.checkpoint_every <= 0
      ->
      { cfg with checkpoint_every = 3 }
    | _ -> cfg
  in
  let clean = run_episode cfg No_fault in
  if clean.ep_failures <> [] then
    { sr_seed = cfg.seed; sr_mode = mode; sr_clean_ops = clean.ep_ops;
      sr_points = 1; sr_redo_applied = 0;
      sr_bad = [ { pt_plan = No_fault; pt_failures = clean.ep_failures } ] }
  else begin
    let points = points_of_mode mode clean in
    let bad = ref [] in
    let redo_applied = ref 0 in
    List.iteri
      (fun i plan ->
        progress (i + 1, List.length points);
        let cfg =
          if recovery_crash then
            (* vary where in the recovery run the second crash lands *)
            { cfg with recovery_crash_gap = Some (1 + (i mod 5)) }
          else cfg
        in
        let ep = safe_episode cfg plan in
        redo_applied := !redo_applied + ep.ep_redo_applied;
        if ep.ep_failures <> [] then
          bad := { pt_plan = plan; pt_failures = ep.ep_failures } :: !bad)
      points;
    { sr_seed = cfg.seed; sr_mode = mode; sr_clean_ops = clean.ep_ops;
      sr_points = List.length points; sr_redo_applied = !redo_applied;
      sr_bad = List.rev !bad }
  end

(* ---- restart equivalence: checkpoints must not change recovered state ----

   Crash the same seeded workload at the same *workload* position twice —
   once with checkpoints off, once with them on — and reopen both.  Because
   [Crash_after_op] counts harness-level operations (not disk ops), both
   runs lose power with the identical committed prefix, and the oracle pins
   each recovered engine to the exact committed model state.  Both passing
   therefore proves the two recovered states are identical: checkpointing
   and truncation changed restart cost, not restart outcome. *)

let restart_equivalence ?(samples = 5) cfg ~checkpoint_every =
  let total = cfg.n_txns * cfg.ops_per_txn in
  let step = max 1 (total / samples) in
  let failures = ref [] in
  let episode tag cfg plan =
    let ep = safe_episode cfg plan in
    List.iter
      (fun f ->
        failures :=
          Fmt.str "%a [%s]: %s" pp_plan plan tag f :: !failures)
      ep.ep_failures
  in
  for i = 0 to samples - 1 do
    let plan = Crash_after_op (1 + (i * step)) in
    episode "without-ckpt" { cfg with checkpoint_every = 0 } plan;
    episode "with-ckpt" { cfg with checkpoint_every } plan
  done;
  List.rev !failures

(* ---- reporting ---- *)

let pp_point ppf (pt : point_result) =
  Fmt.pf ppf "@[<v2>%a:@,%a@]" pp_plan pt.pt_plan
    Fmt.(list ~sep:cut string)
    pt.pt_failures

let pp_seed_report ppf (r : seed_report) =
  if r.sr_bad = [] then
    Fmt.pf ppf "seed %d [%s]: %d fault points, all consistent (redo_applied %d)"
      r.sr_seed (mode_to_string r.sr_mode) r.sr_points r.sr_redo_applied
  else
    Fmt.pf ppf
      "@[<v2>seed %d [%s]: %d of %d fault points FAILED (redo_applied %d):@,%a@]"
      r.sr_seed (mode_to_string r.sr_mode) (List.length r.sr_bad) r.sr_points
      r.sr_redo_applied
      Fmt.(list ~sep:cut pp_point)
      r.sr_bad

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let report_json (reports : seed_report list) =
  let point (pt : point_result) =
    Fmt.str "{\"plan\":\"%a\",\"failures\":[%s]}" pp_plan pt.pt_plan
      (String.concat ","
         (List.map (fun f -> "\"" ^ json_escape f ^ "\"") pt.pt_failures))
  in
  let seed (r : seed_report) =
    Fmt.str
      "{\"seed\":%d,\"mode\":\"%s\",\"clean_ops\":%d,\"points\":%d,\"redo_applied\":%d,\"bad\":[%s]}"
      r.sr_seed (mode_to_string r.sr_mode) r.sr_clean_ops r.sr_points
      r.sr_redo_applied
      (String.concat "," (List.map point r.sr_bad))
  in
  let total_bad =
    List.fold_left (fun n r -> n + List.length r.sr_bad) 0 reports
  in
  Fmt.str "{\"total_failed_points\":%d,\"seeds\":[%s]}" total_bad
    (String.concat "," (List.map seed reports))

(* ---- deliberate recovery bugs (mutation runs) ---- *)

let attachment_records attachment =
  Dmx_db.Db.register_defaults ();
  let skipped = Option.get (Registry.attachment_id attachment) in
  fun (r : Dmx_wal.Log_record.t) ->
    match r.Dmx_wal.Log_record.kind with
    | Dmx_wal.Log_record.Ext { source = Dmx_wal.Log_record.Attachment a; _ } ->
      a = skipped
    | _ -> false

(* Drop the undo of every log record of one attachment type: losers leave
   ghost index entries behind, which the oracle's index audits must catch. *)
let undo_mutation attachment =
  { Undo.no_chaos with skip_undo = attachment_records attachment }

(* Drop the redo of every log record of one attachment type: a winner's
   index change the store lost at the crash stays lost. *)
let redo_mutation attachment =
  { Undo.no_chaos with skip_redo = attachment_records attachment }
