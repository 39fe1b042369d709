(* Plain-text experiment reporting. *)

let heading id ~claim =
  Fmt.pr "@.%s@." (String.make 78 '=');
  Fmt.pr "%s@." id;
  Fmt.pr "paper claim: %s@." claim;
  Fmt.pr "%s@." (String.make 78 '-')

(* Fixed-width table: header row then data rows. *)
let table ~columns rows =
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length c) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        if i = 0 then Fmt.pr "  %-*s" w cell else Fmt.pr "  %*s" w cell)
      cells;
    Fmt.pr "@."
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(* Verdicts are also recorded machine-readably; the driver drains them per
   experiment into BENCH_CLAIMS.json (see EXPERIMENTS.md). Each carries its
   format string as a stable id, so the gate matches a check across runs
   whatever its position or the numbers in its message. *)
type verdict = { id : string; ok : bool; message : string }

let recorded_verdicts : verdict list ref = ref []

let take_verdicts () =
  let vs = List.rev !recorded_verdicts in
  recorded_verdicts := [];
  vs

let verdict ~ok fmt =
  Fmt.kstr
    (fun message ->
      recorded_verdicts :=
        { id = string_of_format fmt; ok; message } :: !recorded_verdicts;
      Fmt.pr "shape check: %s — %s@." (if ok then "PASS" else "FAIL") message)
    fmt

let f1 v = Fmt.str "%.1f" v
let f2 v = Fmt.str "%.2f" v
let i v = string_of_int v

(* Per-experiment observability: every counter that moved between two
   [Dmx_obs.Metrics.snapshot]s, as name/delta pairs. Printed and returned
   so the driver can serialize them. Every counter and probe only grows
   within an experiment ([Metrics.reset] rebases probes), so a negative
   delta is a measurement bug and fails the run. *)
let counter_deltas ~before ~after =
  (* Union of both snapshots: counters registered mid-experiment show their
     full value, and counters that vanished report a negative delta. *)
  let base = Hashtbl.of_seq (List.to_seq before) in
  let seen = Hashtbl.of_seq (List.to_seq after) in
  let vanished =
    List.filter_map
      (fun (name, _) ->
        if Hashtbl.mem seen name then None else Some (name, 0))
      before
  in
  let moved =
    List.filter_map
      (fun (name, v) ->
        let d = v - Option.value ~default:0 (Hashtbl.find_opt base name) in
        if d = 0 then None else Some (name, d))
      (after @ vanished)
  in
  (match List.filter (fun (_, d) -> d < 0) moved with
  | [] -> ()
  | negative ->
    List.iter
      (fun (name, d) -> Fmt.epr "bench: counter %s went backwards (%+d)@." name d)
      negative;
    exit 1);
  if moved <> [] then begin
    Fmt.pr "counters (delta over experiment):@.";
    List.iter (fun (name, d) -> Fmt.pr "  %-28s %+d@." name d) moved
  end;
  moved
