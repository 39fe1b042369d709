(* [dmxbench compare A.json... -- B.json...]: per (metric, workload), each
   side's median and quartiles over its files and a verdict against the
   metric's bound in BENCHMARK.json; failures compared separately. *)

module J = Dmx_obs.Obs_json

type bound = { b_name : string; b_unit : string; lower_better : bool; bound : float }

let bounds path =
  let j = Report.read_file path in
  match Report.member "end_to_end" j with
  | J.List ms ->
    List.map
      (fun m ->
        let s k = Option.value ~default:"" (J.to_string_opt (Report.member k m)) in
        {
          b_name = s "name";
          b_unit = s "unit";
          lower_better = s "better" = "lower";
          bound = Report.num (Report.member "bound" m);
        })
      ms
  | _ -> Util.fail "%s: end_to_end is not a list" path

(* workload -> result objects, over every file of one side *)
let results files =
  List.concat_map
    (fun f ->
      List.filter_map
        (fun (w, r) -> Option.map (fun w -> (w, r)) w)
        (Report.workloads_of (Report.read_file f)))
    files

let values side ~workload ~metric =
  List.filter_map
    (fun (w, r) ->
      if w <> workload then None
      else
        Option.map
          (fun m -> Report.num (Report.member "value" m))
          (J.member metric (Report.member "metrics" r)))
    side

let spread (q1, m, q3) = if m = 0. then Float.infinity else (q3 -. q1) /. Float.abs m

let verdict b a_vals b_vals =
  let qa = Util.quartiles a_vals and qb = Util.quartiles b_vals in
  let _, ma, _ = qa and _, mb, _ = qb in
  let better x y = if b.lower_better then x < y else x > y in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> better y x) a_vals) b_vals
  in
  let change = (mb -. ma) /. Float.abs ma in
  let worse_by = if b.lower_better then change else -.change in
  if Float.max (spread qa) (spread qb) > b.bound then
    if all_better then "better" else "unresolved"
  else if worse_by > b.bound then "worse"
  else if -.worse_by > b.bound then "better"
  else "unchanged"

let fail_ratio side ~workload =
  let att, fl =
    List.fold_left
      (fun (a, f) (w, r) ->
        if w <> workload then (a, f)
        else
          ( a + int_of_float (Report.num (Report.member "attempted" r)),
            f + int_of_float (Report.num (Report.member "failed" r)) ))
      (0, 0) side
  in
  (fl, att)

let counts_of r =
  List.map (fun (k, v) -> (k, Report.num v)) (Report.obj (Report.member "counts" r))

(* Names of the counts that differ between any two results of [workload]. *)
let differing_counts side ~workload =
  match List.filter (fun (w, _) -> w = workload) side with
  | [] -> []
  | (_, first) :: rest ->
    let base = counts_of first in
    List.sort_uniq compare
      (List.concat_map
         (fun (_, r) ->
           let c = counts_of r in
           List.filter_map
             (fun (k, v) -> if List.assoc_opt k c = Some v then None else Some k)
             base)
         rest)

let workload_names side = List.sort_uniq compare (List.map fst side)

let main args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | f :: rest -> split (f :: acc) rest
    | [] -> Util.fail "compare: expected A.json... -- B.json..."
  in
  let a_files, b_files = split [] args in
  if a_files = [] || b_files = [] then Util.fail "compare: each side needs a file";
  let bounds = bounds "BENCHMARK.json" in
  let a = results a_files and b = results b_files in
  let regressions = ref 0 in
  List.iter
    (fun workload ->
      Fmt.pr "== %s (A: %d runs, B: %d runs) ==@." workload
        (List.length (List.filter (fun (w, _) -> w = workload) a))
        (List.length (List.filter (fun (w, _) -> w = workload) b));
      Fmt.pr "  %-16s %-6s %32s   %32s   %s@." "metric" "unit"
        "A median [q1, q3]" "B median [q1, q3]" "verdict (bound)";
      List.iter
        (fun bd ->
          let metric = bd.b_name in
          match (values a ~workload ~metric, values b ~workload ~metric) with
          | [], _ | _, [] -> ()
          | av, bv ->
            let show vs =
              let q1, m, q3 = Util.quartiles vs in
              Printf.sprintf "%12.4f [%.4f, %.4f]" m q1 q3
            in
            let v = verdict bd av bv in
            if v = "worse" || v = "unresolved" then incr regressions;
            Fmt.pr "  %-16s %-6s %32s   %32s   %s (%g)@." bd.b_name bd.b_unit
              (show av) (show bv) v bd.bound)
        bounds;
      let fa, na = fail_ratio a ~workload and fb, nb = fail_ratio b ~workload in
      if fb * max 1 na > fa * max 1 nb then incr regressions;
      Fmt.pr "  fail_ratio: A %d/%d, B %d/%d%s@." fa na fb nb
        (if fb * max 1 na > fa * max 1 nb then "  -- worse" else "");
      List.iter
        (fun (label, side) ->
          match differing_counts side ~workload with
          | [] -> Fmt.pr "  counts: identical across the %s runs@." label
          | ks -> Fmt.pr "  counts: %s runs differ in %s@." label (String.concat ", " ks))
        [ ("A", a); ("B", b); ("A+B", a @ b) ])
    (List.filter (fun w -> List.mem_assoc w b) (workload_names a));
  if !regressions > 0 then 1 else 0

(* The smoke check: every result correct, and the deterministic counts of
   every file identical per workload (an untraced and a traced run of the
   same fixed op count must agree exactly). *)
let same_counts files =
  let side = results files in
  let problems = ref 0 in
  List.iter
    (fun workload ->
      let fl, att = fail_ratio side ~workload in
      if fl > 0 then begin
        incr problems;
        Fmt.epr "%s: %d of %d checks failed@." workload fl att
      end;
      match differing_counts side ~workload with
      | [] -> Fmt.pr "%s: %d checks passed, counts identical@." workload att
      | ks ->
        incr problems;
        Fmt.epr "%s: counts differ in %s@." workload (String.concat ", " ks))
    (workload_names side);
  if side = [] || !problems > 0 then 1 else 0
