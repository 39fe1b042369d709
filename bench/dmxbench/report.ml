(* Results: the metric records, their text and JSON forms, and reading
   result files back for [compare]. *)

module J = Dmx_obs.Obs_json

type metric = {
  name : string;
  value : float;
  unit_ : string;
  n : int;  (* samples behind a timing or a median; 0 for counts *)
}

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : metric list;  (* end to end, measured untraced *)
  layers : metric list;  (* per layer, traced mode only *)
  counts : (string * int) list;  (* deterministic for a fixed op count *)
}

type header = {
  seed : int;
  scale : float;
  seconds : float option;
  traced : bool;
  git_rev : string;
  ocaml : string;
  nproc : int;
}

(* ---- JSON (floats keep all their digits) ---- *)

let rec write buf = function
  | J.Float f when Float.is_finite f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | J.List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      l;
    Buffer.add_char buf ']'
  | J.Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        J.to_buffer buf (J.Str k);
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'
  | v -> J.to_buffer buf v

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

let metric_json m =
  J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_); ("n", J.Int m.n) ]

let metrics_json ms = J.Obj (List.map (fun m -> (m.name, metric_json m)) ms)

let result_json r =
  J.Obj
    [ ("workload", J.Str r.workload);
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("failures", J.List (List.map (fun s -> J.Str s) r.failures));
      ("metrics", metrics_json r.metrics);
      ("layers", metrics_json r.layers);
      ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.counts)) ]

let file_json h results =
  J.Obj
    [ ("schema", J.Str "dmxbench/1");
      ("seed", J.Int h.seed);
      ("scale", J.Float h.scale);
      ("seconds", (match h.seconds with Some s -> J.Float s | None -> J.Null));
      ("traced", J.Bool h.traced);
      ("git_rev", J.Str h.git_rev);
      ("ocaml", J.Str h.ocaml);
      ("nproc", J.Int h.nproc);
      ("workloads", J.List (List.map result_json results)) ]

(* The one-line summary the last line of a run carries: end-to-end metrics
   untraced, per-layer metrics traced. *)
let summary_line ~traced r =
  let ms = if traced then r.layers else r.metrics in
  to_string
    (J.Obj
       [ ("correct", J.Bool r.correct);
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ]))
                ms) ) ])

(* ---- text ---- *)

let pp_metric ppf m =
  Fmt.pf ppf "  %-34s %14.4f %-6s%s@." m.name m.value m.unit_
    (if m.n > 0 then Printf.sprintf "  (n=%d)" m.n else "")

let print h r =
  Fmt.pr "== %s  seed=%d scale=%g %s%s ==@." r.workload h.seed h.scale
    (match h.seconds with Some s -> Printf.sprintf "seconds=%g" s | None -> "fixed ops")
    (if h.traced then " traced" else "");
  List.iter (pp_metric Fmt.stdout) r.metrics;
  if r.layers <> [] then begin
    Fmt.pr "  -- per layer (per op) --@.";
    List.iter (pp_metric Fmt.stdout) r.layers
  end;
  Fmt.pr "  attempted %d, failed %d%s@." r.attempted r.failed
    (if r.correct then "" else "  -- CHECKS FAILED");
  List.iter (fun s -> Fmt.pr "  failure: %s@." s) (List.rev r.failures)

(* ---- reading result files back ---- *)

let member k j =
  match J.member k j with Some v -> v | None -> Util.fail "result file: no %S" k

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse text with
  | Ok j -> j
  | Error e -> Util.fail "%s: %s" path e

let num j =
  match J.to_float_opt j with Some f -> f | None -> Util.fail "result file: not a number"

let obj = function J.Obj kvs -> kvs | _ -> Util.fail "result file: not an object"

(* (workload, result object) pairs of one file *)
let workloads_of j =
  match member "workloads" j with
  | J.List ws -> List.map (fun w -> (J.to_string_opt (member "workload" w), w)) ws
  | _ -> Util.fail "result file: workloads is not a list"
