(* The traced mode's outside-in layer ledger.

   Every layer is timed from outside, at the calls into its public
   functions; nothing inside the engine is instrumented:
   - the Db facade: the workloads open a root span around every Db call;
   - extensions: wrapper storage methods and attachment types, registered
     through [Registry] like any extension, delegate every entry of the
     built-in heap, btree, btree_index, hash_index, check, agg, stats, ...;
   - the page store: a [Disk.custom] store delegating to [Disk.open_file].

   A layer's self time is its span time minus the time of the spans opened
   beneath it. A call into a layer that is already the innermost open span
   (a default batch entry looping the per-record entry) is part of that span,
   not a new one. Spans are kept in memory (up to [max_spans]) and written as
   JSON Lines at exit. *)

open Dmx_core
module Disk = Dmx_page.Disk

type layer = {
  name : string;
  mutable calls : int;  (* outermost calls while recording *)
  mutable self_ns : int;  (* while recording *)
  mutable vetoes : int;  (* Veto results, always counted *)
}

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
    let l = { name; calls = 0; self_ns = 0; vetoes = 0 } in
    Hashtbl.replace layers name l;
    l

let find name = Hashtbl.find_opt layers name

(* Recording is switched only between workload operations, when no span is
   open; the stack itself is kept either way so nesting stays exact. *)
let recording = ref false
let op = ref 0

let max_depth = 256
let st_layer = Array.make max_depth (layer "db")
let st_entry = Array.make max_depth ""
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_id = Array.make max_depth 0
let depth = ref 0
let next_id = ref 0

(* ---- span store ---- *)

let max_spans = 1 lsl 18

type span_store = {
  ids : int array;
  parents : int array;
  ops : int array;
  starts : int array;
  durs : int array;
  selfs : int array;
  s_layers : layer array;
  entries : string array;
}

let store = ref None
let kept = ref 0
let dropped = ref 0
let epoch = ref 0

let enable () =
  if !store = None then begin
    epoch := Util.now_ns ();
    store :=
      Some
        {
          ids = Array.make max_spans 0;
          parents = Array.make max_spans 0;
          ops = Array.make max_spans 0;
          starts = Array.make max_spans 0;
          durs = Array.make max_spans 0;
          selfs = Array.make max_spans 0;
          s_layers = Array.make max_spans (layer "db");
          entries = Array.make max_spans "";
        }
  end

let set_recording on =
  if !depth <> 0 then Util.fail "ledger: recording toggled inside a span";
  recording := on && !store <> None

let push l entry =
  let d = !depth in
  if d >= max_depth then Util.fail "ledger: span stack deeper than %d" max_depth;
  st_layer.(d) <- l;
  st_entry.(d) <- entry;
  if !recording then begin
    incr next_id;
    st_id.(d) <- !next_id;
    st_child.(d) <- 0;
    st_start.(d) <- Util.now_ns ()
  end;
  depth := d + 1

let pop () =
  let d = !depth - 1 in
  depth := d;
  if !recording then begin
    let dur = Util.now_ns () - st_start.(d) in
    let self = dur - st_child.(d) in
    let l = st_layer.(d) in
    l.calls <- l.calls + 1;
    l.self_ns <- l.self_ns + self;
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
    match !store with
    | Some s when !kept < max_spans ->
      let i = !kept in
      s.ids.(i) <- st_id.(d);
      s.parents.(i) <- (if d > 0 then st_id.(d - 1) else 0);
      s.ops.(i) <- !op;
      s.starts.(i) <- st_start.(d) - !epoch;
      s.durs.(i) <- dur;
      s.selfs.(i) <- self;
      s.s_layers.(i) <- l;
      s.entries.(i) <- st_entry.(d);
      kept := i + 1
    | Some _ -> incr dropped
    | None -> ()
  end

let nested l = !depth > 0 && st_layer.(!depth - 1) == l

let call l entry f =
  if nested l then f ()
  else begin
    push l entry;
    match f () with
    | v ->
      pop ();
      v
    | exception e ->
      pop ();
      raise e
  end

(* [call] for attached procedures: also counts vetoes. *)
let call_result l entry f =
  if nested l then f ()
  else begin
    let r = call l entry f in
    (match r with
    | Error (Error.Veto _) -> l.vetoes <- l.vetoes + 1
    | Ok _ | Error _ -> ());
    r
  end

let write_spans path =
  match !store with
  | None -> ()
  | Some s ->
    let oc = open_out path in
    for i = 0 to !kept - 1 do
      Printf.fprintf oc
        "{\"op\":%d,\"id\":%d,\"parent\":%d,\"layer\":\"%s\",\"entry\":\"%s\",\
         \"start_ns\":%d,\"dur_ns\":%d,\"self_ns\":%d}\n"
        s.ops.(i) s.ids.(i) s.parents.(i) s.s_layers.(i).name s.entries.(i)
        s.starts.(i) s.durs.(i) s.selfs.(i)
    done;
    if !dropped > 0 then
      Printf.fprintf oc "{\"truncated\":true,\"dropped_spans\":%d}\n" !dropped;
    close_out oc

(* ---- wrapper extensions ---- *)

let record_scan l (s : Intf.record_scan) =
  {
    Intf.rs_next = (fun () -> call l "scan.next" s.rs_next);
    rs_close = (fun () -> call l "scan.close" s.rs_close);
    rs_capture = (fun () -> call l "scan.capture" s.rs_capture);
  }

let run_scan l (s : Intf.run_scan) =
  {
    Intf.rn_next = (fun () -> call l "scan_batch.next" s.rn_next);
    rn_close = (fun () -> call l "scan_batch.close" s.rn_close);
    rn_capture = (fun () -> call l "scan_batch.capture" s.rn_capture);
  }

let key_scan l (s : Intf.key_scan) =
  {
    Intf.ks_next = (fun () -> call l "scan.next" s.ks_next);
    ks_close = (fun () -> call l "scan.close" s.ks_close);
    ks_capture = (fun () -> call l "scan.capture" s.ks_capture);
  }

let sm_layer name = layer ("smethod." ^ name)
let at_layer name = layer ("attach." ^ name)

let wrap_storage_method (module M : Intf.STORAGE_METHOD) :
    (module Intf.STORAGE_METHOD) =
  let l = sm_layer M.name in
  let c entry f = call l entry f in
  (module struct
    let name = M.name
    let attr_specs = M.attr_specs

    let create ctx ~rel_id schema attrs =
      c "create" (fun () -> M.create ctx ~rel_id schema attrs)

    let destroy ctx ~rel_id ~smethod_desc =
      c "destroy" (fun () -> M.destroy ctx ~rel_id ~smethod_desc)

    let insert ctx desc r = c "insert" (fun () -> M.insert ctx desc r)
    let update ctx desc k r = c "update" (fun () -> M.update ctx desc k r)
    let delete ctx desc k = c "delete" (fun () -> M.delete ctx desc k)

    let fetch ctx desc k ?fields () =
      c "fetch" (fun () -> M.fetch ctx desc k ?fields ())

    let scan ctx desc ?lo ?hi ?filter () =
      record_scan l (c "scan" (fun () -> M.scan ctx desc ?lo ?hi ?filter ()))

    let key_fields desc = c "key_fields" (fun () -> M.key_fields desc)
    let record_count ctx desc = c "record_count" (fun () -> M.record_count ctx desc)

    let estimate_scan ctx desc ~eligible =
      c "estimate_scan" (fun () -> M.estimate_scan ctx desc ~eligible)

    let undo ctx ~rel_id ~data = c "undo" (fun () -> M.undo ctx ~rel_id ~data)
  end)

let wrap_attachment (module A : Intf.ATTACHMENT) : (module Intf.ATTACHMENT) =
  let l = at_layer A.name in
  let c entry f = call l entry f in
  let cr entry f = call_result l entry f in
  (module struct
    let name = A.name
    let attr_specs = A.attr_specs

    let create_instance ctx desc ~instance_name attrs =
      c "create_instance" (fun () ->
          A.create_instance ctx desc ~instance_name attrs)

    let drop_instance ctx desc ~instance_name =
      c "drop_instance" (fun () -> A.drop_instance ctx desc ~instance_name)

    let on_insert ctx desc ~slot k r =
      cr "on_insert" (fun () -> A.on_insert ctx desc ~slot k r)

    let on_update ctx desc ~slot ~old_key ~new_key ~old_record ~new_record =
      cr "on_update" (fun () ->
          A.on_update ctx desc ~slot ~old_key ~new_key ~old_record ~new_record)

    let on_delete ctx desc ~slot k r =
      cr "on_delete" (fun () -> A.on_delete ctx desc ~slot k r)

    let lookup ctx desc ~slot ~instance ~key =
      c "lookup" (fun () -> A.lookup ctx desc ~slot ~instance ~key)

    let scan ctx desc ~slot ~instance ?lo ?hi () =
      Option.map (key_scan l)
        (c "scan" (fun () -> A.scan ctx desc ~slot ~instance ?lo ?hi ()))

    let estimate ctx desc ~slot ~eligible =
      c "estimate" (fun () -> A.estimate ctx desc ~slot ~eligible)

    let undo ctx ~rel_id ~data = c "undo" (fun () -> A.undo ctx ~rel_id ~data)
  end)

(* Replace every registered extension by its wrapper, keeping its name and
   id. The built-in extensions log undo records under their own ids and
   read their own descriptor slot by id, so a wrapper under a fresh id
   would strand those; re-registering the wrappers in the same order onto
   a cleared registry gives each wrapper exactly its delegate's id. The
   optional batch entries captured before the reset are re-installed
   behind the same wrappers. Must run before the first database opens. *)
let install () =
  Dmx_db.Db.register_defaults ();
  let sms =
    List.map
      (fun (id, _) ->
        ( id,
          Registry.storage_method id,
          Registry.Vec.sm_insert_batch.(id),
          Registry.Vec.sm_scan_batch.(id) ))
      (Registry.storage_methods ())
  in
  let ats =
    List.map
      (fun (id, _) ->
        (id, Registry.attachment id, Registry.Vec.at_on_insert_batch.(id)))
      (Registry.attachments ())
  in
  Registry.reset_for_testing ();
  List.iter
    (fun (id, ((module M : Intf.STORAGE_METHOD) as m), insert_batch, scan_batch) ->
      if Registry.register_storage_method (wrap_storage_method m) <> id then
        Util.fail "ledger: storage method %s changed id" M.name;
      let l = sm_layer M.name in
      Registry.set_sm_insert_batch id (fun ctx desc records ->
          call l "insert_batch" (fun () -> insert_batch ctx desc records));
      Registry.set_sm_scan_batch id (fun ctx desc ~lo ~hi ~filter ->
          run_scan l
            (call l "scan_batch" (fun () -> scan_batch ctx desc ~lo ~hi ~filter))))
    sms;
  List.iter
    (fun (id, ((module A : Intf.ATTACHMENT) as a), insert_batch) ->
      if Registry.register_attachment (wrap_attachment a) <> id then
        Util.fail "ledger: attachment %s changed id" A.name;
      let l = at_layer A.name in
      Registry.set_at_insert_batch id (fun ctx desc ~slot entries ->
          call_result l "on_insert_batch" (fun () ->
              insert_batch ctx desc ~slot entries)))
    ats;
  enable ()

(* ---- the page store ---- *)

let disk_layer = layer "page.disk"
let disk_reads = ref 0
let disk_writes = ref 0
let disk_syncs = ref 0

let open_disk path =
  let d = Disk.open_file path in
  let c entry f = call disk_layer entry f in
  Disk.custom
    {
      Disk.o_page_count = (fun () -> Disk.page_count d);
      o_alloc = (fun () -> c "alloc" (fun () -> Disk.alloc d));
      o_read =
        (fun id ->
          incr disk_reads;
          c "read" (fun () -> Disk.read d id));
      o_write =
        (fun id data ->
          incr disk_writes;
          c "write" (fun () -> Disk.write d id data));
      o_sync =
        (fun () ->
          incr disk_syncs;
          c "sync" (fun () -> Disk.sync d));
      o_close = (fun () -> Disk.close d);
      o_durable = true;
    }
