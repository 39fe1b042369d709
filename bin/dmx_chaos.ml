(* dmx-chaos: deterministic fault injection and crash-recovery torture.

   The default sweep replays a seeded workload once per fault point, crashing
   the page store at every I/O operation in turn, recovering, and running the
   attachment-consistency oracle. Failures print a replayable (seed, point)
   pair; `--replay SEED:POINT` reruns exactly that episode.

     dmx_chaos --seeds 10 --sweep            # acceptance sweep
     dmx_chaos --sweep --mode io-error       # every write/sync error instead
     dmx_chaos --replay 7:123                # one episode, crash at op 123
     dmx_chaos --seeds 3 --sweep --mutate    # prove the oracle catches a bug
     dmx_chaos --seeds 3 --sweep --mutate redo   # ... a skipped redo *)

module H = Dmx_torture.Chaos_harness

let seeds = ref 3
let one_seed = ref None
let do_sweep = ref false
let mode = ref H.Mode_crash
let recovery_crash = ref false
let replay = ref None
let n_txns = ref 5
let ops_per_txn = ref 6
let pool = ref 8
let checkpoint_every = ref 0
(* [Some `Undo] / [Some `Redo]: which recovery pass --mutate breaks *)
let mutate = ref None
let introspect = ref false
let json_path = ref None
let verbose = ref false

let set_mode s =
  match H.mode_of_string s with
  | Some m -> mode := m
  | None -> raise (Arg.Bad ("unknown mode " ^ s))

let set_replay s =
  match String.split_on_char ':' s with
  | [ seed; point ] -> begin
    match (int_of_string_opt seed, int_of_string_opt point) with
    | Some seed, Some point -> replay := Some (seed, point)
    | _ -> raise (Arg.Bad ("bad --replay " ^ s))
  end
  | _ -> raise (Arg.Bad ("bad --replay " ^ s ^ " (want SEED:POINT)"))

let spec =
  [
    ("--seeds", Arg.Set_int seeds, "N sweep seeds 1..N (default 3)");
    ("--seed", Arg.Int (fun s -> one_seed := Some s), "S sweep only seed S");
    ("--sweep", Arg.Set do_sweep, " crash at every fault point of each seed");
    ( "--mode",
      Arg.String set_mode,
      "M fault mode: crash (default) | io-error | torn | ckpt-crash | \
       truncate-crash" );
    ( "--crash-in-checkpoint",
      Arg.Unit (fun () -> mode := H.Mode_ckpt_crash),
      " sweep crashes with checkpoints interleaved (alias for --mode \
       ckpt-crash)" );
    ( "--crash-in-truncate",
      Arg.Unit (fun () -> mode := H.Mode_truncate_crash),
      " crash at every log-truncation phase event (alias for --mode \
       truncate-crash)" );
    ( "--checkpoint-every",
      Arg.Set_int checkpoint_every,
      "N checkpoint every N workload ops (default 0 = off; checkpoint modes \
       default to 3)" );
    ( "--recovery-crash",
      Arg.Set recovery_crash,
      " crash each recovery run too (recovery idempotence)" );
    ( "--replay",
      Arg.String set_replay,
      "SEED:POINT replay one episode (POINT<0 = sync error in io-error mode)"
    );
    ("--txns", Arg.Set_int n_txns, "N transactions per workload (default 5)");
    ( "--ops",
      Arg.Set_int ops_per_txn,
      "N max operations per transaction (default 6)" );
    ("--pool", Arg.Set_int pool, "N buffer-pool capacity (default 8)");
    ( "--mutate",
      Arg.Unit (fun () -> mutate := Some `Undo),
      "[undo|redo] deliberately break btree-index undo (default) or redo; \
       exit 0 iff the oracle objects" );
    ( "--introspect",
      Arg.Set introspect,
      " after each recovery, audit the engine through its dmx_* system \
       views (no leaked txns or lock grants)" );
    ("--json", Arg.String (fun p -> json_path := Some p), "PATH write summary JSON");
    ("-v", Arg.Set verbose, " per-point progress");
  ]

let usage = "dmx_chaos [options]  (see bin/dmx_chaos.ml header for examples)"

(* The word after --mutate, if any, picks the pass to break. *)
let anon arg =
  match (!mutate, arg) with
  | Some _, "undo" -> mutate := Some `Undo
  | Some _, "redo" -> mutate := Some `Redo
  | _ -> raise (Arg.Bad ("unexpected argument " ^ arg))

let config seed =
  let every =
    (* replays of checkpoint-mode points need the same cadence the sweep ran
       with, or the fault point lands in a different op stream *)
    if !checkpoint_every > 0 then !checkpoint_every
    else
      match !mode with
      | H.Mode_ckpt_crash | H.Mode_truncate_crash -> 3
      | _ -> 0
  in
  { (H.default_config ~seed) with
    H.n_txns = !n_txns;
    ops_per_txn = !ops_per_txn;
    pool_capacity = !pool;
    introspect = !introspect;
    checkpoint_every = every }

let plan_of_point point =
  match !mode with
  | H.Mode_crash | H.Mode_ckpt_crash -> H.Crash_at point
  | H.Mode_io_error ->
    if point < 0 then H.Sync_error_nth (-point) else H.Write_error_nth point
  | H.Mode_torn -> H.Torn_write_nth point
  | H.Mode_truncate_crash -> H.Truncate_crash_at point

let run_replay seed point =
  let plan = plan_of_point point in
  Fmt.pr "replaying seed %d, %a@." seed H.pp_plan plan;
  let ep = H.safe_episode (config seed) plan in
  (match ep.H.ep_fault with
  | Some f -> Fmt.pr "fault fired: %s@." f
  | None -> Fmt.pr "fault never fired (workload ended first)@.");
  if ep.H.ep_failures = [] then begin
    Fmt.pr "oracle: consistent@.";
    0
  end
  else begin
    Fmt.pr "@[<v2>oracle: %d failure(s):@,%a@]@."
      (List.length ep.H.ep_failures)
      Fmt.(list ~sep:cut string)
      ep.H.ep_failures;
    1
  end

let run_sweeps () =
  let seed_list =
    match !one_seed with
    | Some s -> [ s ]
    | None -> List.init !seeds (fun i -> i + 1)
  in
  let reports =
    List.map
      (fun seed ->
        let progress =
          if !verbose then (fun (i, n) ->
            if i mod 50 = 0 || i = n then Fmt.epr "seed %d: %d/%d@." seed i n)
          else ignore
        in
        let r =
          H.sweep ~progress (config seed) !mode
            ~recovery_crash:!recovery_crash
        in
        Fmt.pr "%a@." H.pp_seed_report r;
        r)
      seed_list
  in
  (match !json_path with
  | Some path ->
    let oc = open_out path in
    output_string oc (H.report_json reports);
    output_string oc "\n";
    close_out oc
  | None -> ());
  let failed =
    List.exists (fun (r : H.seed_report) -> r.H.sr_bad <> []) reports
  in
  match !mutate with
  | Some pass ->
    let what = match pass with `Undo -> "undo" | `Redo -> "redo" in
    if failed then begin
      Fmt.pr "mutation detected: the oracle caught the broken %s@." what;
      0
    end
    else begin
      Fmt.pr "MUTATION MISSED: broken %s survived every fault point@." what;
      1
    end
  | None -> if failed then 1 else 0

let () =
  Arg.parse spec anon usage;
  (match !mutate with
  | Some `Undo -> H.enable_undo_mutation "btree_index"
  | Some `Redo -> H.enable_redo_mutation "btree_index"
  | None -> ());
  let code =
    match !replay with
    | Some (seed, point) -> run_replay seed point
    | None ->
      if not !do_sweep then begin
        (* single fault-free episode per seed: a smoke run *)
        let bad =
          List.exists
            (fun seed ->
              let ep = H.safe_episode (config seed) H.No_fault in
              Fmt.pr "seed %d: %d ops, %d writes, %d syncs, %s@." seed
                ep.H.ep_ops ep.H.ep_writes ep.H.ep_syncs
                (if ep.H.ep_failures = [] then "consistent"
                 else String.concat "; " ep.H.ep_failures);
              ep.H.ep_failures <> [])
            (match !one_seed with
            | Some s -> [ s ]
            | None -> List.init !seeds (fun i -> i + 1))
        in
        if !mutate <> None then if bad then 0 else 1 else if bad then 1 else 0
      end
      else run_sweeps ()
  in
  exit code
