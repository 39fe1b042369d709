(* The one emission path for dmx telemetry: a single span stack, id counter
   and gate, feeding pluggable sinks over closed spans and instant events.
   Sinks: the JSON-lines trace, the event ring, the profile aggregator and
   the statement aggregator. The metrics registry keeps its own counters but
   is armed through the same sink set. *)

type sink = [ `Metrics | `Trace | `Events | `Profile | `Statements ]

type span = {
  id : int;
  parent : int;
  name : string;
  txid : int;
  key : Profile.key option;
  start : float;
  attrs : (string * Obs_json.t) list;
  mutable child_us : float;  (* time charged to enclosed keyed spans *)
}

(* A file sink buffers writes (flushed when the trace sink is disarmed and
   at exit) and honors a [DMX_TRACE_MAX_MB] byte budget: the first line that
   would exceed it is replaced by a single truncation marker and everything
   after is dropped, instead of growing the file without bound. *)
type file_sink = {
  fs_oc : out_channel;
  fs_cap : int option;  (* bytes; None = unbounded *)
  mutable fs_written : int;
  mutable fs_truncated : bool;
}

(* Every piece of telemetry state, in one record. *)
type state = {
  mutable trace : bool;
  mutable events : bool;
  mutable profile : bool;
  mutable statements : bool;
  mutable any : bool;  (* the gate: some span sink is armed *)
  mutable next_id : int;
  mutable stack : span list;
  mutable emitted : int;
  mutable line_override : (string -> unit) option;
  mutable default_line : (string -> unit) option;  (* resolved on first use *)
  mutable files : file_sink list;
  ring : Event_ring.t;
  prof : Profile.t;
  store : Query_store.t;
}

let st =
  {
    trace = false;
    events = false;
    profile = false;
    statements = false;
    any = false;
    next_id = 0;
    stack = [];
    emitted = 0;
    line_override = None;
    default_line = None;
    files = [];
    ring = Event_ring.create ();
    prof = Profile.create ();
    store = Query_store.create ();
  } [@@dmx.global "ctx-owned"]

let active () = st.any
let ring () = st.ring
let profile () = st.prof
let store () = st.store

(* ---- the JSON-lines trace sink ---- *)

let flush () =
  List.iter (fun fs -> try flush fs.fs_oc with Sys_error _ -> ()) st.files

let () = at_exit flush

let file_sink_write fs line =
  if not fs.fs_truncated then begin
    let len = String.length line + 1 in
    match fs.fs_cap with
    | Some cap when fs.fs_written + len > cap ->
      fs.fs_truncated <- true;
      Printf.fprintf fs.fs_oc "{\"ts\":%.6f,\"ev\":\"truncated\",\"cap_bytes\":%d}\n"
        (Unix.gettimeofday ()) cap;
      Stdlib.flush fs.fs_oc
    | _ ->
      output_string fs.fs_oc line;
      output_char fs.fs_oc '\n';
      fs.fs_written <- fs.fs_written + len
  end

let truncated () = List.exists (fun fs -> fs.fs_truncated) st.files

let cap_from_env () =
  match Sys.getenv_opt "DMX_TRACE_MAX_MB" with
  | None -> None
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some mb when mb > 0. -> Some (int_of_float (mb *. 1024. *. 1024.))
    | Some _ | None -> None)

let make_file_sink path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  let fs =
    {
      fs_oc = oc;
      fs_cap = cap_from_env ();
      fs_written = (try out_channel_length oc with Sys_error _ -> 0);
      fs_truncated = false;
    }
  in
  st.files <- fs :: st.files;
  file_sink_write fs

let set_line_sink f = st.line_override <- Some f
let open_file_sink path = st.line_override <- Some (make_file_sink path)
let use_default_sink () = st.line_override <- None

let emit_line line =
  st.emitted <- st.emitted + 1;
  match st.line_override with
  | Some f -> f line
  | None ->
    let f =
      match st.default_line with
      | Some f -> f
      | None ->
        let f =
          match Sys.getenv_opt "DMX_TRACE_FILE" with
          | Some path -> make_file_sink path
          | None -> prerr_endline
        in
        st.default_line <- Some f;
        f
    in
    f line

let emitted () = st.emitted

let render ~ev ~id ~parent ~txid ~name ~us ~outcome ~attrs ~ts =
  let buf = Buffer.create 160 in
  Printf.bprintf buf "{\"ts\":%.6f,\"ev\":%S,\"id\":%d,\"parent\":%d,\"txn\":%d,"
    ts ev id parent txid;
  Buffer.add_string buf "\"name\":";
  Obs_json.to_buffer buf (Obs_json.Str name);
  Option.iter (fun us -> Printf.bprintf buf ",\"us\":%.1f" us) us;
  Option.iter
    (fun o ->
      Buffer.add_string buf ",\"outcome\":";
      Obs_json.to_buffer buf (Obs_json.Str o))
    outcome;
  if attrs <> [] then begin
    Buffer.add_string buf ",\"attrs\":";
    Obs_json.to_buffer buf (Obs_json.Obj attrs)
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ---- probes: telemetry loss and statement-store health ---- *)

(* Loss signals would otherwise be invisible: the ring forgets silently and
   the file sink truncates silently. Registering again after a sink reset
   drops the probe's [Metrics.reset] baseline along with the old state. *)
let register_probes () =
  Metrics.register_probe "telemetry_loss" (fun () ->
      [
        ("events.dropped", Event_ring.dropped st.ring);
        ("trace.truncated", if truncated () then 1 else 0);
      ]);
  Metrics.register_probe "query_store" (fun () -> Query_store.probe st.store)

let () = register_probes ()

(* ---- arming ---- *)

let set_armed (sink : sink) b =
  (match sink with
  | `Metrics -> Metrics.set_enabled b
  | `Trace ->
    st.trace <- b;
    if not b then flush ()
  | `Events -> st.events <- b
  | `Profile -> st.profile <- b
  | `Statements -> st.statements <- b);
  (* spans and statement stats without their counters would be blind *)
  (match sink with
  | (`Trace | `Statements) when b -> Metrics.set_enabled true
  | _ -> ());
  st.any <- st.trace || st.events || st.profile || st.statements

let arm sink = set_armed sink true
let disarm sink = set_armed sink false

let reset (sink : sink) =
  match sink with
  | `Metrics -> Metrics.reset ()
  | `Trace -> st.emitted <- 0
  | `Profile -> Profile.reset st.prof
  | `Events ->
    Event_ring.reset st.ring;
    register_probes ()
  | `Statements ->
    Query_store.reset st.store;
    register_probes ()

let sink_names =
  [ ("metrics", `Metrics); ("trace", `Trace); ("events", `Events);
    ("profile", `Profile); ("statements", `Statements) ]

let sinks_of_string s =
  String.split_on_char ',' s
  |> List.filter_map (fun w ->
         match String.lowercase_ascii (String.trim w) with
         | "" -> None
         | w -> (
           match List.assoc_opt w sink_names with
           | Some sink -> Some sink
           | None ->
             prerr_endline
               ("dmx: DMX_OBS: unknown sink " ^ w
              ^ " (metrics|trace|events|profile|statements)");
             None))

let () =
  Option.iter
    (fun s -> List.iter arm (sinks_of_string s))
    (Sys.getenv_opt "DMX_OBS")

(* ---- spans and events ---- *)

let null_span =
  { id = 0; parent = 0; name = ""; txid = 0; key = None; start = 0.;
    attrs = []; child_us = 0. } [@@dmx.global "config-immutable-after-setup"]

let depth () = List.length st.stack

let reset_for_testing () =
  st.stack <- [];
  st.next_id <- 0;
  st.emitted <- 0

let enter ?(txid = -1) ?key ?(attrs = []) name =
  if not st.any then null_span
  else begin
    st.next_id <- st.next_id + 1;
    let parent, txid =
      match st.stack with
      | [] -> (0, max txid 0)
      | s :: _ -> (s.id, if txid >= 0 then txid else s.txid)
    in
    let sp =
      { id = st.next_id; parent; name; txid; key;
        start = Unix.gettimeofday (); attrs; child_us = 0. }
    in
    st.stack <- sp :: st.stack;
    sp
  end

let event ?(txid = -1) ?(attrs = []) name =
  if st.any then begin
    st.next_id <- st.next_id + 1;
    let parent, inherited =
      match st.stack with [] -> (0, 0) | s :: _ -> (s.id, s.txid)
    in
    let txid = if txid >= 0 then txid else inherited in
    if st.trace then
      emit_line
        (render ~ev:"event" ~id:st.next_id ~parent ~txid ~name ~us:None
           ~outcome:None ~attrs ~ts:(Unix.gettimeofday ()));
    if st.events then
      Event_ring.record st.ring ~kind:Event_ring.Event ~name ~txid ~us:0.
        ~outcome:""
  end

let hex_attr h = Obs_json.Str (Option.fold ~none:"" ~some:Query_store.hex h)

(* A closing [stmt.exec] span: fold its exec record into the statement
   aggregator and raise the plan-change and slow-statement events while the
   span is still open, so they parent under it. *)
let close_statement (x : Query_store.exec) ~us =
  let x = { x with x_us = us } in
  let fp = ("fp", Obs_json.Str (Query_store.hex x.x_fp)) in
  (if st.statements then
     match Query_store.record st.store x with
     | Query_store.Plan_changed old ->
       event "plan.changed"
         ~attrs:[ fp; ("old", hex_attr (Some old)); ("new", hex_attr x.x_plan) ]
     | Query_store.Plan_none | Plan_first | Plan_same -> ());
  if Event_ring.is_slow st.ring us then
    event "stmt.slow"
      ~attrs:
        [ fp; ("text", Obs_json.Str x.x_sample); ("us", Obs_json.Float us);
          ("rows", Obs_json.Int x.x_rows); ("plan", hex_attr x.x_plan) ]

(* Durations carry 0.1 us resolution everywhere — the precision the trace
   file writes — so live sinks and a re-read trace see identical values. *)
let round_us us = Float.round (us *. 10.) /. 10.

let exit ?(outcome = "ok") ?(attrs = []) ?exec sp =
  if sp != null_span then begin
    let us = round_us ((Unix.gettimeofday () -. sp.start) *. 1e6) in
    if st.any then Option.iter (close_statement ~us) exec;
    (* pop up to and including [sp]; tolerate an unbalanced stack rather
       than wedging telemetry (the sanitizer reports the imbalance) *)
    let rec pop = function
      | [] -> []
      | s :: rest -> if s == sp then rest else pop rest
    in
    st.stack <- pop st.stack;
    (* self time excludes enclosed keyed spans; an unkeyed span passes its
       keyed children's time through to its own parent *)
    (match st.stack with
    | parent :: _ ->
      parent.child_us <-
        (parent.child_us +. match sp.key with None -> sp.child_us | Some _ -> us)
    | [] -> ());
    if st.any then begin
      if st.trace then
        emit_line
          (render ~ev:"span" ~id:sp.id ~parent:sp.parent ~txid:sp.txid
             ~name:sp.name ~us:(Some us) ~outcome:(Some outcome)
             ~attrs:(sp.attrs @ attrs) ~ts:sp.start);
      if st.events then
        Event_ring.record st.ring ~kind:Event_ring.Span ~name:sp.name
          ~txid:sp.txid ~us ~outcome;
      match sp.key with
      | Some key when st.profile ->
        Profile.charge st.prof ~txid:sp.txid key ~total_us:us
          ~self_us:(Float.max 0. (us -. sp.child_us))
          ~outcome
      | Some _ | None -> ()
    end
  end

let with_span ?txid ?key ?attrs name f =
  if not st.any then f ()
  else begin
    let sp = enter ?txid ?key ?attrs name in
    match f () with
    | v ->
      exit sp;
      v
    | exception e ->
      exit sp ~outcome:"exn"
        ~attrs:[ ("exn", Obs_json.Str (Printexc.to_string e)) ];
      raise e
  end
