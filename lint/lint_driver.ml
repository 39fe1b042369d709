type config = {
  root : string;
  hot_dirs : string list;
  cli_dirs : string list;
  smethod_dir : string;
  attach_dir : string;
  factory_file : string;
  mli_dirs : string list;
  span_dirs : string list;
  global_dirs : string list;
  analysis_dirs : string list;
  wal_entry_dirs : string list;
}

let default_config ~root =
  {
    root;
    hot_dirs = [ "lib/smethod"; "lib/attach"; "lib/txn"; "lib/wal" ];
    cli_dirs = [ "bin"; "bench" ];
    smethod_dir = "lib/smethod";
    attach_dir = "lib/attach";
    factory_file = "lib/db/db.ml";
    mli_dirs = [ "lib" ];
    span_dirs = [ "lib"; "bin" ];
    global_dirs = [ "lib" ];
    analysis_dirs = [ "lib" ];
    wal_entry_dirs = [ "lib/smethod"; "lib/attach" ];
  }

type report = {
  violations : Lint_diag.t list;
  checked_files : int;
  globals : Lint_rules.global_entry list;
  lock : Lint_callgraph.lock_result;
  wal : Lint_callgraph.wal_result;
}

(* The root-relative [.ml] files under [dirs], each with its parse. *)
let parsed config dirs =
  List.concat_map (Lint_rules.ml_files_under ~root:config.root) dirs
  |> List.sort_uniq String.compare
  |> List.map (fun file ->
         let full_path = Filename.concat config.root file in
         (file, Lint_rules.parse_impl ~file ~full_path))

(* The number of files under [dirs] and [check]'s diagnostics on each; a
   file that does not parse is one diagnostic. *)
let per_file config dirs check =
  let files = parsed config dirs in
  ( List.length files,
    List.concat_map
      (function
        | _, Error d -> [ d ] | file, Ok structure -> check ~file structure)
      files )

let hot_file_diags config =
  per_file config config.hot_dirs (fun ~file structure ->
      Lint_rules.error_discipline ~file structure
      @ Lint_rules.exception_swallowing ~file structure
      @
      if String.starts_with ~prefix:config.smethod_dir file then
        Lint_rules.wal_before_page ~file structure
      else [])

(* R6 scope is wider than the hot dirs (spans are opened all over lib/ and
   bin/); parse failures there are left to R2/R3's pass or the build. *)
let span_pairing_diags config =
  parsed config config.span_dirs
  |> List.concat_map (function
       | _, Error _ -> []
       | file, Ok structure -> Lint_rules.span_pairing ~file structure)

(* R2/R3 over the CLI and bench drivers: same discipline as the hot dirs
   except [exit] is allowed (a process exit status is their interface). *)
let cli_file_diags config =
  per_file config config.cli_dirs (fun ~file structure ->
      Lint_rules.error_discipline ~allow_exit:true ~file structure
      @ Lint_rules.exception_swallowing ~file structure)

(* R7 over every module of the global-state scope. *)
let global_state_pass config =
  parsed config config.global_dirs
  |> List.fold_left
       (fun (entries, diags) -> function
         | _, Error _ -> (entries, diags)
         | file, Ok structure ->
           let e, d = Lint_rules.global_state ~file structure in
           (entries @ e, diags @ d))
       ([], [])

(* R8 + R9 over the whole-program callgraph. *)
let interproc_pass config =
  let cg =
    Lint_callgraph.load ~root:config.root ~dirs:config.analysis_dirs
      ~parse_impl:Lint_rules.parse_impl
      ~ml_files_under:Lint_rules.ml_files_under
  in
  let lock = Lint_callgraph.lock_analysis cg in
  let lock_diags =
    List.map
      (fun (v : Lint_callgraph.lock_violation) ->
        let s = v.lv_site in
        let hl, hm = v.lv_held in
        let what =
          match v.lv_kind with
          | `Hierarchy ->
            Fmt.str
              "acquires %s-level %s while already holding a %s-level %s — \
               out of db -> relation -> record hierarchy order"
              (Lint_callgraph.level_name s.ls_level)
              s.ls_mode
              (Lint_callgraph.level_name hl)
              hm
          | `Reacquire ->
            Fmt.str
              "may re-acquire at %s level in mode %s while holding \
               conflicting mode %s"
              (Lint_callgraph.level_name s.ls_level)
              s.ls_mode hm
        in
        Lint_diag.make ~rule:Lint_rules.rule_lock_order ~file:s.ls_file
          ~line:s.ls_line
          (Fmt.str "%s (in %s; witness path: %s)" what s.ls_fun v.lv_path))
      lock.lr_violations
  in
  let cycle_diags =
    List.map
      (fun (levels, witness) ->
        Lint_diag.make ~rule:Lint_rules.rule_lock_cycle ~file:"lock-order-graph"
          ~line:1
          (Fmt.str
             "cycle in the derived lock-order graph over levels [%s] — the \
              hierarchy is no longer a partial order (witness: %s)"
             (String.concat " -> "
                (List.map Lint_callgraph.level_name levels))
             witness))
      lock.lr_cycles
  in
  let entry_files =
    List.concat_map (Lint_rules.ml_files_under ~root:config.root)
      config.wal_entry_dirs
    |> List.sort_uniq String.compare
  in
  let wal =
    Lint_callgraph.wal_analysis cg ~entry_files
      ~ddl_entries:
        [ (config.smethod_dir, "create"); (config.attach_dir, "create_instance") ]
  in
  let wal_diags =
    List.map
      (fun (v : Lint_callgraph.wal_violation) ->
        Lint_diag.make ~rule:Lint_rules.rule_wal_interproc ~file:v.wv_file
          ~line:v.wv_line
          (Fmt.str
             "%s reaches a page mutation (%s:%d) with no logging call on the \
              path %s — WAL-before-page must hold across helpers, not just \
              per body"
             v.wv_entry v.wv_mut_file v.wv_mut_line v.wv_path))
      wal.wr_violations
  in
  (lock, wal, lock_diags @ wal_diags @ cycle_diags)

let run config =
  let checked_hot, hot = hot_file_diags config in
  let checked_cli, cli = cli_file_diags config in
  let globals, global_diags = global_state_pass config in
  let lock, wal, interproc_diags = interproc_pass config in
  let violations =
    Lint_rules.vector_completeness ~root:config.root
      ~ext_dirs:
        [ (config.smethod_dir, "storage-method"); (config.attach_dir, "attachment") ]
      ~factory:config.factory_file
    @ Lint_rules.mli_coverage ~root:config.root ~dirs:config.mli_dirs
    @ span_pairing_diags config
    @ hot @ cli @ global_diags @ interproc_diags
  in
  {
    violations = List.sort Lint_diag.compare violations;
    checked_files = checked_hot + checked_cli;
    globals;
    lock;
    wal;
  }

let ok r = r.violations = []

let pp_analysis ppf r =
  Fmt.pf ppf "== R7: global mutable state inventory ==@.";
  let count c =
    List.length (List.filter (fun g -> g.Lint_rules.g_class = c) r.globals)
  in
  Fmt.pf ppf
    "%d binding(s): %d ctx-owned, %d config-immutable-after-setup, %d UNSAFE, \
     %d unclassified@."
    (List.length r.globals)
    (count (Some "ctx-owned"))
    (count (Some "config-immutable-after-setup"))
    (count (Some "UNSAFE")) (count None);
  List.iter
    (fun (g : Lint_rules.global_entry) ->
      Fmt.pf ppf "  %s:%d %s (%s) -> %s@." g.g_file g.g_line g.g_name g.g_kind
        (Option.value ~default:"UNCLASSIFIED" g.g_class))
    r.globals;
  Fmt.pf ppf "@.== R8: static lock-order analysis ==@.";
  Fmt.pf ppf "%d acquisition site(s), %d order edge(s), %d violation(s), %d \
              cycle(s)@."
    (List.length r.lock.Lint_callgraph.lr_sites)
    (List.length r.lock.Lint_callgraph.lr_edges)
    (List.length r.lock.Lint_callgraph.lr_violations)
    (List.length r.lock.Lint_callgraph.lr_cycles);
  List.iter
    (fun ((a, b), w) ->
      Fmt.pf ppf "  order: %s -> %s (witness: %s)@."
        (Lint_callgraph.level_name a)
        (Lint_callgraph.level_name b)
        w)
    r.lock.Lint_callgraph.lr_edges;
  List.iter
    (fun (d : Lint_diag.t) ->
      if d.rule = Lint_rules.rule_lock_order then
        Fmt.pf ppf "  violation: %a@." Lint_diag.pp d)
    r.violations;
  Fmt.pf ppf "@.== R9: interprocedural WAL-before-page ==@.";
  Fmt.pf ppf "%d entry point(s), %d violation(s)@."
    (List.length r.wal.Lint_callgraph.wr_summaries)
    (List.length r.wal.Lint_callgraph.wr_violations);
  List.iter
    (fun (name, (s : Lint_callgraph.wal_summary)) ->
      Fmt.pf ppf "  entry %s: logs=%b unlogged-path=%s@." name s.ws_logs
        (match s.ws_unlogged with
        | None -> "none"
        | Some (f, l, p) -> Fmt.str "%s:%d via %s" f l p))
    r.wal.Lint_callgraph.wr_summaries

let pp_report ppf r =
  List.iter (fun d -> Fmt.pf ppf "%a@." Lint_diag.pp d) r.violations;
  if ok r then
    Fmt.pf ppf "dmx-lint: %d file(s) checked, no violations@." r.checked_files
  else
    Fmt.pf ppf "dmx-lint: %d file(s) checked, %d violation(s)@." r.checked_files
      (List.length r.violations)
