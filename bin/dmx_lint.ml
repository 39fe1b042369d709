(* dmx-lint: static enforcement of the extension-architecture invariants.

   Usage: dmx_lint --root DIR [--report FILE]

   --report writes the full concurrency-readiness analysis (R7 global-state
   inventory, R8 lock-order graph, R9 WAL entry summaries) to FILE — the CI
   build artifact.

   Exit codes: 0 clean, 1 violations, 2 usage error. *)

let usage () =
  prerr_endline "usage: dmx_lint --root DIR [--report FILE]";
  exit 2

let () =
  let root = ref "." in
  let report_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--root" :: dir :: rest ->
      root := dir;
      parse rest
    | "--report" :: file :: rest ->
      report_file := Some file;
      parse rest
    | ("--help" | "-h") :: _ | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (Sys.file_exists !root && Sys.is_directory !root) then begin
    Fmt.epr "dmx_lint: --root %s is not a directory@." !root;
    exit 2
  end;
  let report = Lint_driver.run (Lint_driver.default_config ~root:!root) in
  (match !report_file with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Fmt.pf (Format.formatter_of_out_channel oc) "%a@?" Lint_driver.pp_analysis
          report);
    Fmt.pr "dmx-lint: analysis report written to %s@." file);
  Fmt.pr "%a" Lint_driver.pp_report report;
  exit (if Lint_driver.ok report then 0 else 1)
