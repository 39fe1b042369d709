(* CI regression gate over dmx-bench JSON artifacts (schema dmx-bench/1).

   Usage: gate.exe FRESH.json [BASELINE.json]

   Fails (exit 1) when:
   - any shape check in the fresh run is not ok;
   - a shape check that passed in the baseline no longer passes, or is
     missing from the fresh run (checks are matched by their [id], the
     verdict's format string, never by position);
   - two shape checks of one experiment share an id;
   - a baseline counter of at least 16 drifts more than 10% (a counter
     absent from the fresh run reads as 0: it stopped moving).

   Wall-clock seconds are reported but never gated: CI hardware varies far
   more than 10% run to run, while the counter deltas (syscalls, fsyncs,
   dispatch calls, logical I/O) are exact replays of a deterministic
   workload — they are the regression signal. *)

module J = Dmx_obs.Obs_json

let read_doc path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse s with
  | Ok doc -> doc
  | Error e ->
    prerr_endline (Printf.sprintf "%s: bad JSON: %s" path e);
    exit 2

let experiments doc =
  match J.member "experiments" doc with Some (J.List l) -> l | _ -> []

let exp_name e =
  Option.value ~default:"?" (Option.bind (J.member "name" e) J.to_string_opt)

let shape_checks e =
  match J.member "shape_checks" e with Some (J.List l) -> l | _ -> []

let check_ok c =
  match J.member "ok" c with Some (J.Bool b) -> b | _ -> false

let check_msg c =
  Option.value ~default:"?" (Option.bind (J.member "message" c) J.to_string_opt)

let check_id c =
  Option.value ~default:"?" (Option.bind (J.member "id" c) J.to_string_opt)

let counters e =
  match J.member "counters" e with
  | Some (J.Obj kvs) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun i -> (k, i)) (J.to_int_opt v))
      kvs
  | _ -> []

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let gate_fresh fresh =
  List.iter
    (fun e ->
      List.iter
        (fun c ->
          if not (check_ok c) then
            fail "[%s] shape check failed: %s" (exp_name e) (check_msg c))
        (shape_checks e))
    (experiments fresh)

let reject_duplicate_ids path doc =
  List.iter
    (fun e ->
      let ids = List.map check_id (shape_checks e) in
      List.iter
        (fun id ->
          if List.length (List.filter (( = ) id) ids) > 1 then
            fail "%s: [%s] duplicate shape-check id: %s" path (exp_name e) id)
        (List.sort_uniq compare ids))
    (experiments doc)

let gate_against_baseline fresh baseline =
  let fresh_by_name =
    List.map (fun e -> (exp_name e, e)) (experiments fresh)
  in
  List.iter
    (fun base ->
      let name = exp_name base in
      match List.assoc_opt name fresh_by_name with
      | None ->
        if List.exists check_ok (shape_checks base) then
          fail "[%s] present in baseline but missing from the fresh run" name
      | Some e ->
        let fresh_checks = shape_checks e in
        List.iter
          (fun c ->
            if check_ok c then
              match
                List.find_opt (fun f -> check_id f = check_id c) fresh_checks
              with
              | None ->
                fail
                  "[%s] baseline-green shape check missing from the fresh \
                   run: %s"
                  name (check_msg c)
              | Some f when not (check_ok f) ->
                fail "[%s] regressed: baseline-green shape check now fails: %s"
                  name (check_msg f)
              | Some _ -> ())
          (shape_checks base);
        let fresh_counters = counters e in
        List.iter
          (fun (k, bv) ->
            (* tiny counters flip by a few ops on incidental code motion;
               only meaningful volumes participate in the 10% ratchet. The
               bench records only counters that moved, so an absent one
               stopped at 0. *)
            let fv =
              Option.value ~default:0 (List.assoc_opt k fresh_counters)
            in
            if abs bv >= 16 && abs (fv - bv) * 10 > abs bv then
              fail "[%s] counter %s drifted > 10%%: %d -> %d" name k bv fv)
          (counters base))
    (experiments baseline)

let () =
  let fresh_path, baseline_path =
    match Array.to_list Sys.argv with
    | [ _; f ] -> (f, None)
    | [ _; f; b ] -> (f, Some b)
    | _ ->
      prerr_endline "usage: gate.exe FRESH.json [BASELINE.json]";
      exit 2
  in
  let fresh = read_doc fresh_path in
  gate_fresh fresh;
  reject_duplicate_ids fresh_path fresh;
  (match baseline_path with
  | Some b when Sys.file_exists b ->
    let baseline = read_doc b in
    reject_duplicate_ids b baseline;
    gate_against_baseline fresh baseline
  | Some b -> Printf.printf "gate: no baseline at %s, fresh-only checks\n" b
  | None -> ());
  match List.rev !failures with
  | [] ->
    Printf.printf "gate: PASS (%d experiments%s)\n"
      (List.length (experiments fresh))
      (if baseline_path = None then "" else ", checked against baseline");
    exit 0
  | fs ->
    List.iter (fun f -> Printf.printf "gate: FAIL %s\n" f) fs;
    exit 1
