(* dmx_prof — offline analyzer for DMX_TRACE_FILE JSON-Lines traces.

   Usage:
     dmx_prof.exe [--top N] [--json] [--statements] [TRACE_FILE]

   When TRACE_FILE is omitted, $DMX_TRACE_FILE is consulted, so the same
   environment variable that produced the trace can be reused to read it
   back. Reports: critical path of the slowest transaction, top-N slowest
   spans, per-relation and per-attachment latency quantiles, per-statement
   fingerprint statistics, lock-contention pairs, and deadlock victims.
   --json emits the same report as one JSON object on stdout (CI diffs
   profiles across runs); text stays the default. --statements restricts
   the output to the statement section alone — with --json that is a bare
   list, convenient as a CI artifact. *)

let usage () =
  Fmt.epr "usage: dmx_prof [--top N] [--json] [--statements] [TRACE_FILE]@.";
  Fmt.epr "       TRACE_FILE defaults to $DMX_TRACE_FILE@.";
  exit 2

let () =
  let top = ref 10 in
  let json = ref false in
  let statements_only = ref false in
  let path = ref None in
  let rec parse = function
    | [] -> ()
    | "--top" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > 0 -> top := n
      | _ -> usage ());
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--statements" :: rest ->
      statements_only := true;
      parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: rest ->
      (match !path with None -> path := Some arg | Some _ -> usage ());
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let path =
    match !path with
    | Some p -> p
    | None -> (
      match Sys.getenv_opt "DMX_TRACE_FILE" with
      | Some p when p <> "" -> p
      | _ -> usage ())
  in
  if not (Sys.file_exists path) then begin
    Fmt.epr "dmx_prof: no such trace file: %s@." path;
    exit 1
  end;
  let records, errors = Dmx_obs.Trace_reader.load_file path in
  List.iter (fun e -> Fmt.epr "dmx_prof: %s@." e) errors;
  if records = [] then begin
    Fmt.epr "dmx_prof: %s: no trace records@." path;
    exit 1
  end;
  if !statements_only then begin
    let open Dmx_obs in
    let ss = Trace_reader.statements records in
    if !json then
      Fmt.pr "%s@."
        (Obs_json.to_string
           (Obs_json.List (List.map Trace_reader.statement_json ss)))
    else
      List.iter
        (fun (e : Query_store.entry) ->
          Fmt.pr
            "%s  calls=%d errs=%d rows=%d p50=%.1fus p95=%.1fus plans=%d  %s@."
            (Query_store.hex e.e_fp) e.e_calls e.e_errors e.e_rows
            (Query_store.quantile e 0.50) (Query_store.quantile e 0.95)
            (List.length e.e_plans) e.e_text)
        ss
  end
  else if !json then
    Fmt.pr "%s@."
      (Dmx_obs.Obs_json.to_string (Dmx_obs.Trace_reader.to_json ~top:!top records))
  else Fmt.pr "%a@." (Dmx_obs.Trace_reader.pp_report ~top:!top) records
