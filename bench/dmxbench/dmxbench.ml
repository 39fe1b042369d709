(* dmxbench: end-to-end workloads through the Db facade, with an outside-in
   per-layer ledger. See README.md.

   dmxbench [--workload W|all] [--seed N] [--scale F] [--seconds S]
            [--trace 0|1|FILE] [--json OUT]
   dmxbench compare A.json... -- B.json...
   dmxbench same-counts A.json B.json...

   A run prints a report per workload and, as the last line of each, a JSON
   summary of its end-to-end metrics (or, traced, its per-layer metrics).
   Exit status 0 when every check passed, 1 when one failed, 2 on bad
   usage or a harness error. *)

let usage () =
  prerr_endline
    "usage: dmxbench [--workload oltp_point|scan_report|ingest_churn|all] \
     [--seed N] [--scale F] [--seconds S] [--trace 0|1|FILE] [--json OUT]\n\
    \       dmxbench compare A.json... -- B.json...\n\
    \       dmxbench same-counts A.json B.json...";
  exit 2

let read_line path =
  match open_in path with
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    close_in ic;
    line
  | exception Sys_error _ -> None

(* The checked-out revision, from .git in the current directory only. *)
let git_rev () =
  match read_line ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> begin
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read_line (Filename.concat ".git" ref_) with
    | Some rev -> rev
    | None -> "unknown"
  end
  | Some rev -> rev
  | None -> "unknown"

type trace = Untraced | Default_file | File of string

type opts = {
  workload : string;
  seed : int;
  scale : float;
  seconds : float option;
  trace : trace;
  json : string option;
}

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest -> parse { o with workload = w } rest
  | "--seed" :: n :: rest -> (
    match int_of_string_opt n with
    | Some s -> parse { o with seed = s } rest
    | None -> usage ())
  | "--scale" :: f :: rest -> (
    match float_of_string_opt f with
    | Some s when s > 0. -> parse { o with scale = s } rest
    | _ -> usage ())
  | "--seconds" :: f :: rest -> (
    match float_of_string_opt f with
    | Some s when s > 0. -> parse { o with seconds = Some s } rest
    | _ -> usage ())
  | "--trace" :: "0" :: rest -> parse { o with trace = Untraced } rest
  | "--trace" :: "1" :: rest -> parse { o with trace = Default_file } rest
  | "--trace" :: path :: rest -> parse { o with trace = File path } rest
  | "--json" :: path :: rest -> parse { o with json = Some path } rest
  | _ -> usage ()

let bench args =
  let o =
    parse
      { workload = "all"; seed = 1; scale = 1.; seconds = None; trace = Untraced;
        json = None }
      args
  in
  let spans =
    match o.trace with
    | Untraced -> None
    | Default_file -> Some (Printf.sprintf ".dmxbench/trace-%s.jsonl" o.workload)
    | File path -> Some path
  in
  let specs =
    match o.workload with
    | "all" -> Workloads.specs
    | w -> (
      match List.filter (fun (s : Workloads.spec) -> s.name = w) Workloads.specs with
      | [] -> usage ()
      | l -> l)
  in
  let traced = spans <> None in
  (* native counters count only while the registry is enabled; both modes
     enable it so their counts compare *)
  Dmx_obs.Metrics.set_enabled true;
  if traced then Ledger.install () else Dmx_db.Db.register_defaults ();
  let root = Printf.sprintf ".dmxbench/%d" (Unix.getpid ()) in
  Util.mkdir_p root;
  let header =
    {
      Report.seed = o.seed;
      scale = o.scale;
      seconds = o.seconds;
      traced;
      git_rev = git_rev ();
      ocaml = Sys.ocaml_version;
      nproc = Domain.recommended_domain_count ();
    }
  in
  let cfg = { Run.seed = o.seed; scale = o.scale; seconds = o.seconds; traced; root } in
  let results =
    Fun.protect
      ~finally:(fun () -> Util.rm_rf root)
      (fun () ->
        List.map
          (fun spec ->
            let r = Run.run cfg spec in
            Report.print header r;
            print_endline (Report.summary_line ~traced r);
            r)
          specs)
  in
  Option.iter Ledger.write_spans spans;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Report.to_string (Report.file_json header results));
      output_char oc '\n';
      close_out oc)
    o.json;
  if List.for_all (fun (r : Report.result) -> r.correct) results then 0 else 1

let () =
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | "compare" :: rest -> Compare.main rest
      | "same-counts" :: files -> Compare.same_counts files
      | args -> bench args
    with Util.Bench_error msg ->
      prerr_endline ("dmxbench: " ^ msg);
      2
  in
  exit code
