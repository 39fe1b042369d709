type kind = Span | Event | Truncated

type record = {
  r_ts : float;
  r_kind : kind;
  r_id : int;
  r_parent : int;
  r_txn : int;
  r_name : string;
  r_us : float;
  r_outcome : string option;
  r_attrs : (string * Obs_json.t) list;
}

let parse_line line =
  match Obs_json.parse line with
  | Error e -> Error e
  | Ok json -> (
    let str key = Option.bind (Obs_json.member key json) Obs_json.to_string_opt in
    let num key ~default =
      match Option.bind (Obs_json.member key json) Obs_json.to_float_opt with
      | Some f -> f
      | None -> default
    in
    let int key ~default =
      match Option.bind (Obs_json.member key json) Obs_json.to_int_opt with
      | Some i -> i
      | None -> default
    in
    let kind =
      match str "ev" with
      | Some "span" -> Ok Span
      | Some "event" -> Ok Event
      | Some "truncated" -> Ok Truncated
      | Some other -> Error (Printf.sprintf "unknown ev %S" other)
      | None -> Error "missing ev field"
    in
    match kind with
    | Error e -> Error e
    | Ok r_kind ->
      let attrs =
        match Obs_json.member "attrs" json with
        | Some (Obs_json.Obj kvs) -> kvs
        | _ -> []
      in
      Ok
        {
          r_ts = num "ts" ~default:0.;
          r_kind;
          r_id = int "id" ~default:0;
          r_parent = int "parent" ~default:0;
          r_txn = int "txn" ~default:0;
          r_name = (match str "name" with Some n -> n | None -> "");
          r_us = num "us" ~default:0.;
          r_outcome = str "outcome";
          r_attrs = attrs;
        })

let load_file path =
  let ic = open_in path in
  let records = ref [] and errors = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         match parse_line line with
         | Ok r -> records := r :: !records
         | Error e ->
           errors := Printf.sprintf "line %d: %s" !lineno e :: !errors
     done
   with End_of_file -> close_in ic);
  (List.rev !records, List.rev !errors)

(* ---- span forest ---- *)

type node = { n_rec : record; mutable n_kids : node list }

(* Order spans deterministically: slowest first, ties broken by start time
   then id so golden output is stable. *)
let by_slowest a b =
  match compare b.r_us a.r_us with
  | 0 -> ( match compare a.r_ts b.r_ts with 0 -> compare a.r_id b.r_id | c -> c)
  | c -> c

let spans records = List.filter (fun r -> r.r_kind = Span) records
let events records = List.filter (fun r -> r.r_kind = Event) records

let forest records =
  let sps = spans records in
  let by_id = Hashtbl.create 64 in
  let nodes = List.map (fun r -> { n_rec = r; n_kids = [] }) sps in
  List.iter (fun n -> Hashtbl.replace by_id n.n_rec.r_id n) nodes;
  let roots =
    List.filter
      (fun n ->
        match Hashtbl.find_opt by_id n.n_rec.r_parent with
        | Some p when p != n ->
          p.n_kids <- n :: p.n_kids;
          false
        | _ -> true)
      nodes
  in
  let rec sort n =
    n.n_kids <- List.sort (fun a b -> by_slowest a.n_rec b.n_rec) n.n_kids;
    List.iter sort n.n_kids
  in
  List.iter sort roots;
  List.sort (fun a b -> by_slowest a.n_rec b.n_rec) roots

let critical_path records =
  match forest records with
  | [] -> []
  | root :: _ ->
    let rec walk n acc =
      match n.n_kids with
      | [] -> List.rev (n.n_rec :: acc)
      | slowest :: _ -> walk slowest (n.n_rec :: acc)
    in
    walk root []

let top_spans ?(n = 10) records =
  let sps = List.sort by_slowest (spans records) in
  List.filteri (fun i _ -> i < n) sps

(* ---- quantiles over raw samples ---- *)

(* Nearest-rank on the sorted samples: exact and deterministic, which is
   what a golden test wants (the online [Metrics.quantile] interpolates
   inside fixed buckets instead). *)
let quantile samples q =
  match samples with
  | [] -> None
  | _ ->
    let arr = Array.of_list samples in
    Array.sort compare arr;
    let n = Array.length arr in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    Some arr.(idx)

type group_stats = {
  g_key : string;
  g_count : int;
  g_vetoes : int;
  g_p50 : float;
  g_p95 : float;
  g_p99 : float;
}

let group_stats_of ~key_of ~prefix records =
  let groups : (string, float list ref * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun r ->
      let pl = String.length prefix in
      if
        String.length r.r_name > pl
        && String.sub r.r_name 0 pl = prefix
      then
        match key_of r with
        | None -> ()
        | Some key ->
          let samples, vetoes =
            match Hashtbl.find_opt groups key with
            | Some g -> g
            | None ->
              let g = (ref [], ref 0) in
              Hashtbl.replace groups key g;
              g
          in
          samples := r.r_us :: !samples;
          if r.r_outcome = Some "veto" then incr vetoes)
    (spans records);
  Hashtbl.fold
    (fun key (samples, vetoes) acc ->
      let q p = match quantile !samples p with Some v -> v | None -> 0. in
      {
        g_key = key;
        g_count = List.length !samples;
        g_vetoes = !vetoes;
        g_p50 = q 0.50;
        g_p95 = q 0.95;
        g_p99 = q 0.99;
      }
      :: acc)
    groups []
  |> List.sort (fun a b -> compare a.g_key b.g_key)

let attr_str key r =
  Option.bind (List.assoc_opt key r.r_attrs) Obs_json.to_string_opt

let per_relation records =
  group_stats_of ~key_of:(attr_str "rel") ~prefix:"relation." records

let per_attachment records =
  group_stats_of ~key_of:(attr_str "attachment") ~prefix:"attach." records

(* ---- statements: stmt.exec spans folded through the store's own fold ---- *)

let attr_int key r =
  Option.bind (List.assoc_opt key r.r_attrs) Obs_json.to_int_opt

let attr_hex key r =
  Option.bind (attr_str key r) (fun h ->
      if h = "" then None else Int64.of_string_opt ("0x" ^ h))

(* The exec record a [stmt.exec] span line still carries: the trace keeps
   fingerprint, text, rows, plan and outcome, not the I/O and lock deltas. *)
let exec_of_record r =
  Option.map
    (fun fp ->
      {
        Query_store.x_fp = fp;
        x_text = Option.value ~default:"" (attr_str "text" r);
        x_sample = "";
        x_us = r.r_us;
        x_rows = Option.value ~default:0 (attr_int "rows" r);
        x_error = r.r_outcome <> Some "ok";
        x_pool_hits = 0;
        x_pool_misses = 0;
        x_page_reads = 0;
        x_wal_bytes = 0;
        x_lock_conflicts = 0;
        x_lock_waits = 0;
        x_vetoes = 0;
        x_plan = attr_hex "plan" r;
      })
    (attr_hex "fp" r)

let statements records =
  let store = Query_store.create ~capacity:max_int () in
  List.iter
    (fun r ->
      if r.r_name = "stmt.exec" then
        Option.iter
          (fun x -> ignore (Query_store.record store x))
          (exec_of_record r))
    (spans records);
  Query_store.entries store
  |> List.stable_sort (fun (a : Query_store.entry) b ->
         compare b.e_calls a.e_calls)

let plans_oldest_first (e : Query_store.entry) =
  List.rev_map (fun u -> Query_store.hex u.Query_store.pu_hash) e.e_plans

let statement_json (e : Query_store.entry) =
  Obs_json.Obj
    [ ("fingerprint", Obs_json.Str (Query_store.hex e.e_fp));
      ("statement", Obs_json.Str e.e_text);
      ("calls", Obs_json.Int e.e_calls);
      ("errors", Obs_json.Int e.e_errors);
      ("rows", Obs_json.Int e.e_rows);
      ("p50_us", Obs_json.Float (Query_store.quantile e 0.50));
      ("p95_us", Obs_json.Float (Query_store.quantile e 0.95));
      ( "plans",
        Obs_json.List
          (List.map (fun p -> Obs_json.Str p) (plans_oldest_first e)) ) ]

(* ---- lock contention ---- *)

type contention = {
  c_waiter : int;
  c_holder : int;
  c_resource : string;
  c_mode : string;
  c_count : int;
}

let lock_contention records =
  let pairs : (int * int * string * string, int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun r ->
      if r.r_name = "lock.conflict" then begin
        let resource =
          match attr_str "resource" r with Some s -> s | None -> "?"
        in
        let mode = match attr_str "mode" r with Some s -> s | None -> "?" in
        let holders =
          match List.assoc_opt "holders" r.r_attrs with
          | Some (Obs_json.List l) ->
            List.filter_map Obs_json.to_int_opt l
          | _ -> []
        in
        List.iter
          (fun holder ->
            let key = (r.r_txn, holder, resource, mode) in
            match Hashtbl.find_opt pairs key with
            | Some c -> incr c
            | None -> Hashtbl.replace pairs key (ref 1))
          holders
      end)
    (events records);
  Hashtbl.fold
    (fun (w, h, res, mode) c acc ->
      { c_waiter = w; c_holder = h; c_resource = res; c_mode = mode;
        c_count = !c }
      :: acc)
    pairs []
  |> List.sort (fun a b ->
         compare
           (a.c_waiter, a.c_holder, a.c_resource, a.c_mode)
           (b.c_waiter, b.c_holder, b.c_resource, b.c_mode))

type victim = { v_txn : int; v_cycle : int list }

let deadlock_victims records =
  List.filter_map
    (fun r ->
      if r.r_name = "deadlock.victim" then
        let v_txn =
          match
            Option.bind (List.assoc_opt "victim" r.r_attrs) Obs_json.to_int_opt
          with
          | Some v -> v
          | None -> r.r_txn
        in
        let v_cycle =
          match List.assoc_opt "cycle" r.r_attrs with
          | Some (Obs_json.List l) -> List.filter_map Obs_json.to_int_opt l
          | _ -> []
        in
        Some { v_txn; v_cycle }
      else None)
    (events records)

let truncated records = List.exists (fun r -> r.r_kind = Truncated) records

(* ---- report ---- *)

let pp_report ?(top = 10) ppf records =
  let sps = spans records and evs = events records in
  let txns =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun r -> if r.r_txn <> 0 then Hashtbl.replace seen r.r_txn ())
      records;
    Hashtbl.length seen
  in
  Fmt.pf ppf "trace summary: %d spans, %d events, %d transactions%s@."
    (List.length sps) (List.length evs) txns
    (if truncated records then " (TRUNCATED by DMX_TRACE_MAX_MB)" else "");
  (match critical_path records with
  | [] -> Fmt.pf ppf "@.critical path: (no spans)@."
  | path ->
    Fmt.pf ppf "@.critical path (slowest root, heaviest child at each step):@.";
    List.iteri
      (fun i r ->
        let indent = String.make (i * 2) ' ' in
        let outcome =
          match r.r_outcome with
          | Some o when o <> "ok" -> "  [" ^ o ^ "]"
          | _ -> ""
        in
        Fmt.pf ppf "  %s%s  %s  txn=%d%s@." indent
          (Report_txt.fmt_us r.r_us) r.r_name r.r_txn outcome)
      path);
  (match top_spans ~n:top records with
  | [] -> ()
  | sps ->
    Fmt.pf ppf "@.top %d spans by elapsed time:@." (List.length sps);
    Report_txt.pp_table
      ~columns:
        [
          ("time", Report_txt.R);
          ("name", Report_txt.L);
          ("txn", Report_txt.R);
          ("outcome", Report_txt.L);
        ]
      ppf
      (List.map
         (fun r ->
           [
             Report_txt.fmt_us r.r_us;
             r.r_name;
             string_of_int r.r_txn;
             (match r.r_outcome with Some o -> o | None -> "-");
           ])
         sps));
  (match per_relation records with
  | [] -> ()
  | gs ->
    Fmt.pf ppf "@.per-relation span latency (us):@.";
    Report_txt.pp_table
      ~columns:
        [
          ("relation", Report_txt.L);
          ("count", Report_txt.R);
          ("p50", Report_txt.R);
          ("p95", Report_txt.R);
          ("p99", Report_txt.R);
        ]
      ppf
      (List.map
         (fun g ->
           [
             g.g_key;
             string_of_int g.g_count;
             Printf.sprintf "%.1f" g.g_p50;
             Printf.sprintf "%.1f" g.g_p95;
             Printf.sprintf "%.1f" g.g_p99;
           ])
         gs));
  (match per_attachment records with
  | [] -> ()
  | gs ->
    Fmt.pf ppf "@.per-attachment span latency (us):@.";
    Report_txt.pp_table
      ~columns:
        [
          ("attachment", Report_txt.L);
          ("count", Report_txt.R);
          ("vetoes", Report_txt.R);
          ("p50", Report_txt.R);
          ("p95", Report_txt.R);
          ("p99", Report_txt.R);
        ]
      ppf
      (List.map
         (fun g ->
           [
             g.g_key;
             string_of_int g.g_count;
             string_of_int g.g_vetoes;
             Printf.sprintf "%.1f" g.g_p50;
             Printf.sprintf "%.1f" g.g_p95;
             Printf.sprintf "%.1f" g.g_p99;
           ])
         gs));
  (match statements records with
  | [] -> ()
  | ss ->
    Fmt.pf ppf "@.statements (from stmt.exec spans):@.";
    Report_txt.pp_table
      ~columns:
        [
          ("fingerprint", Report_txt.L);
          ("calls", Report_txt.R);
          ("errs", Report_txt.R);
          ("rows", Report_txt.R);
          ("p50", Report_txt.R);
          ("p95", Report_txt.R);
          ("plans", Report_txt.R);
          ("statement", Report_txt.L);
        ]
      ppf
      (List.map
         (fun (e : Query_store.entry) ->
           [
             Query_store.hex e.e_fp;
             string_of_int e.e_calls;
             string_of_int e.e_errors;
             string_of_int e.e_rows;
             Printf.sprintf "%.1f" (Query_store.quantile e 0.50);
             Printf.sprintf "%.1f" (Query_store.quantile e 0.95);
             string_of_int (List.length e.e_plans);
             e.e_text;
           ])
         ss));
  (match lock_contention records with
  | [] -> ()
  | cs ->
    Fmt.pf ppf "@.lock contention:@.";
    List.iter
      (fun c ->
        Fmt.pf ppf "  txn %d blocked by txn %d on %s (%s)  x%d@." c.c_waiter
          c.c_holder c.c_resource c.c_mode c.c_count)
      cs);
  match deadlock_victims records with
  | [] -> ()
  | vs ->
    Fmt.pf ppf "@.deadlock victims:@.";
    List.iter
      (fun v ->
        Fmt.pf ppf "  txn %d  (cycle: %s)@." v.v_txn
          (String.concat " -> " (List.map string_of_int v.v_cycle)))
      vs

(* ---- machine-readable report (dmx_prof --json) ---- *)

let to_json ?(top = 10) records =
  let sps = spans records and evs = events records in
  let txns =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun r -> if r.r_txn <> 0 then Hashtbl.replace seen r.r_txn ())
      records;
    Hashtbl.length seen
  in
  let span_obj r =
    Obs_json.Obj
      [ ("name", Obs_json.Str r.r_name);
        ("txn", Obs_json.Int r.r_txn);
        ("us", Obs_json.Float r.r_us);
        ( "outcome",
          match r.r_outcome with
          | Some o -> Obs_json.Str o
          | None -> Obs_json.Null ) ]
  in
  let group_obj g =
    Obs_json.Obj
      [ ("key", Obs_json.Str g.g_key);
        ("count", Obs_json.Int g.g_count);
        ("vetoes", Obs_json.Int g.g_vetoes);
        ("p50_us", Obs_json.Float g.g_p50);
        ("p95_us", Obs_json.Float g.g_p95);
        ("p99_us", Obs_json.Float g.g_p99) ]
  in
  Obs_json.Obj
    [ ( "summary",
        Obs_json.Obj
          [ ("spans", Obs_json.Int (List.length sps));
            ("events", Obs_json.Int (List.length evs));
            ("transactions", Obs_json.Int txns);
            ("truncated", Obs_json.Bool (truncated records)) ] );
      ( "critical_path",
        Obs_json.List (List.map span_obj (critical_path records)) );
      ( "top_spans",
        Obs_json.List (List.map span_obj (top_spans ~n:top records)) );
      ( "per_relation",
        Obs_json.List (List.map group_obj (per_relation records)) );
      ( "per_attachment",
        Obs_json.List (List.map group_obj (per_attachment records)) );
      ( "statements",
        Obs_json.List (List.map statement_json (statements records)) );
      ( "lock_contention",
        Obs_json.List
          (List.map
             (fun c ->
               Obs_json.Obj
                 [ ("waiter", Obs_json.Int c.c_waiter);
                   ("holder", Obs_json.Int c.c_holder);
                   ("resource", Obs_json.Str c.c_resource);
                   ("mode", Obs_json.Str c.c_mode);
                   ("count", Obs_json.Int c.c_count) ])
             (lock_contention records)) );
      ( "deadlock_victims",
        Obs_json.List
          (List.map
             (fun v ->
               Obs_json.Obj
                 [ ("txn", Obs_json.Int v.v_txn);
                   ( "cycle",
                     Obs_json.List
                       (List.map (fun t -> Obs_json.Int t) v.v_cycle) ) ])
             (deadlock_victims records)) ) ]
