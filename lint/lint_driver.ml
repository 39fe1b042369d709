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
  notes : string list;
  checked_files : int;
  globals : Lint_rules.global_entry list;
  lock : Lint_callgraph.lock_result;
  wal : Lint_callgraph.wal_result;
}

let hot_file_diags config =
  let files =
    List.concat_map (Lint_rules.ml_files_under ~root:config.root) config.hot_dirs
    |> List.sort_uniq String.compare
  in
  let diags =
    List.concat_map
      (fun file ->
        let full_path = Filename.concat config.root file in
        match Lint_rules.parse_impl ~file ~full_path with
        | Error d -> [ d ]
        | Ok structure ->
          let in_smethod =
            String.length file >= String.length config.smethod_dir
            && String.sub file 0 (String.length config.smethod_dir)
               = config.smethod_dir
          in
          Lint_rules.error_discipline ~file structure
          @ Lint_rules.exception_swallowing ~file structure
          @ (if in_smethod then Lint_rules.wal_before_page ~file structure
             else []))
      files
  in
  (List.length files, diags)

(* R6 scope is wider than the hot dirs (spans are opened all over lib/ and
   bin/); parse failures there are left to R2/R3's pass or the build. *)
let span_pairing_diags config =
  List.concat_map (Lint_rules.ml_files_under ~root:config.root) config.span_dirs
  |> List.sort_uniq String.compare
  |> List.concat_map (fun file ->
         let full_path = Filename.concat config.root file in
         match Lint_rules.parse_impl ~file ~full_path with
         | Error _ -> []
         | Ok structure -> Lint_rules.span_pairing ~file structure)

(* R2/R3 over the CLI and bench drivers: same discipline as the hot dirs
   except [exit] is allowed (a process exit status is their interface). *)
let cli_file_diags config =
  let files =
    List.concat_map (Lint_rules.ml_files_under ~root:config.root) config.cli_dirs
    |> List.sort_uniq String.compare
  in
  let diags =
    List.concat_map
      (fun file ->
        let full_path = Filename.concat config.root file in
        match Lint_rules.parse_impl ~file ~full_path with
        | Error d -> [ d ]
        | Ok structure ->
          Lint_rules.error_discipline ~allow_exit:true ~file structure
          @ Lint_rules.exception_swallowing ~file structure)
      files
  in
  (List.length files, diags)

(* R7 over every module of the global-state scope. *)
let global_state_pass config =
  List.concat_map (Lint_rules.ml_files_under ~root:config.root) config.global_dirs
  |> List.sort_uniq String.compare
  |> List.fold_left
       (fun (entries, diags) file ->
         let full_path = Filename.concat config.root file in
         match Lint_rules.parse_impl ~file ~full_path with
         | Error _ -> (entries, diags)
         | Ok structure ->
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
  let wal = Lint_callgraph.wal_analysis cg ~entry_files in
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
  (lock, wal, lock_diags @ wal_diags, cycle_diags)

let run ?baseline ?(update_baseline = false) config =
  let checked_hot, hot = hot_file_diags config in
  let checked_cli, cli = cli_file_diags config in
  let checked = checked_hot + checked_cli in
  let globals, global_diags = global_state_pass config in
  let lock, wal, interproc_baselinable, cycle_diags = interproc_pass config in
  let strict =
    Lint_rules.vector_completeness ~root:config.root
      ~ext_dirs:
        [ (config.smethod_dir, "storage-method"); (config.attach_dir, "attachment") ]
      ~factory:config.factory_file
    @ Lint_rules.mli_coverage ~root:config.root ~dirs:config.mli_dirs
    @ span_pairing_diags config
    @ cycle_diags
  in
  let strict_hot, baselinable =
    List.partition
      (fun d -> not (Lint_rules.baselinable d.Lint_diag.rule))
      (hot @ cli @ global_diags @ interproc_baselinable)
  in
  let strict = strict @ strict_hot in
  let mk violations notes =
    { violations; notes; checked_files = checked; globals; lock; wal }
  in
  (* group baselinable diagnostics by (rule, file) *)
  let groups : (string * string, Lint_diag.t list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun d ->
      let key = (d.Lint_diag.rule, d.Lint_diag.file) in
      Hashtbl.replace groups key
        (d :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    baselinable;
  let counts =
    Hashtbl.fold (fun (rule, file) ds acc -> (rule, file, List.length ds) :: acc)
      groups []
  in
  match baseline with
  | Some path when update_baseline ->
    Lint_baseline.save path counts;
    mk
      (List.sort Lint_diag.compare strict)
      [ Fmt.str "baseline regenerated: %s (%d entries)" path (List.length counts) ]
  | Some path -> begin
    match Lint_baseline.load path with
    | Error msg ->
      mk
        (List.sort Lint_diag.compare
           (Lint_diag.make ~rule:"baseline" ~file:path ~line:1 msg :: strict))
        []
    | Ok bl ->
      (* A pin above the tree's count is itself a violation: a fixed
         violation must take its allowance with it, or a new one could
         take its place unseen. *)
      let slack file rule n allowed =
        Lint_diag.make ~rule:"baseline" ~file:path ~line:1
          (Fmt.str
             "%s has %d %s violation(s), baseline allows %d — tighten with \
              --update-baseline"
             file n rule allowed)
      in
      let over, notes =
        Hashtbl.fold
          (fun (rule, file) ds (over, notes) ->
            let n = List.length ds in
            let allowed = Lint_baseline.allowed bl ~rule ~file in
            if n > allowed then
              ( ds @ over,
                Fmt.str
                  "%s: %d %s violation(s) vs %d allowed by the baseline — fix \
                   them, or regenerate lint/baseline.sexp if this regression \
                   is intentional and reviewed"
                  file n rule allowed
                :: notes )
            else if n < allowed then (slack file rule n allowed :: over, notes)
            else (over, notes))
          groups ([], [])
      in
      (* baseline entries whose file went clean entirely *)
      let stale =
        Lint_baseline.entries bl
        |> List.filter_map (fun (rule, file, count) ->
               if count > 0 && not (Hashtbl.mem groups (rule, file)) then
                 Some (slack file rule 0 count)
               else None)
      in
      mk
        (List.sort Lint_diag.compare (strict @ over @ stale))
        (List.sort String.compare notes)
  end
  | None -> mk (List.sort Lint_diag.compare (strict @ baselinable)) []

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
    (fun (v : Lint_callgraph.lock_violation) ->
      let s = v.lv_site in
      let hl, hm = v.lv_held in
      Fmt.pf ppf "  violation (%s): %s:%d %s acquires %s %s holding %s %s \
                  (path: %s)@."
        (match v.lv_kind with
        | `Hierarchy -> "hierarchy"
        | `Reacquire -> "re-acquire")
        s.ls_file s.ls_line s.ls_fun
        (Lint_callgraph.level_name s.ls_level)
        s.ls_mode
        (Lint_callgraph.level_name hl)
        hm v.lv_path)
    r.lock.Lint_callgraph.lr_violations;
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
  List.iter (fun n -> Fmt.pf ppf "%s@." n) r.notes;
  if ok r then
    Fmt.pf ppf "dmx-lint: %d file(s) checked, no violations@." r.checked_files
  else
    Fmt.pf ppf "dmx-lint: %d file(s) checked, %d violation(s)@." r.checked_files
      (List.length r.violations)
