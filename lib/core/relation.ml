open Dmx_value
open Dmx_catalog
module Txn = Dmx_txn.Txn
module Txn_mgr = Dmx_txn.Txn_mgr
module Lock_table = Dmx_lock.Lock_table

(* Storage-method and attached-procedure calls, so benches can show the
   tuple-at-a-time call volume the paper worries about. *)
let m_sm_calls = Dmx_obs.Metrics.counter "dispatch.sm_calls"
let m_at_calls = Dmx_obs.Metrics.counter "dispatch.at_calls"

(* Attachment vetoes, so the query store can charge them per statement. *)
let m_vetoes = Dmx_obs.Metrics.counter "dispatch.vetoes"

(* Run [f] as one atomic statement: on error or exception, roll back to a
   mark taken before it. The mark lives on the stack, so cascading
   modifications (an attached procedure modifying another relation) each
   roll back exactly their own partial effects. *)
let atomically ctx f =
  let mark = Txn_mgr.mark ctx.Ctx.txn_mgr ctx.Ctx.txn in
  match f () with
  | Ok _ as ok -> ok
  | Error _ as e ->
    Txn_mgr.rollback_to_mark ctx.Ctx.txn_mgr ctx.Ctx.txn mark;
    e
  | exception Error.Error err ->
    Txn_mgr.rollback_to_mark ctx.Ctx.txn_mgr ctx.Ctx.txn mark;
    Error err

(* Every storage-method modification bumps the transaction's count, so the
   transaction's buffered record cursors re-read before their next step
   (Scan_help.records_of_runs). *)
let modifying ctx =
  Dmx_obs.Metrics.incr m_sm_calls;
  let txn = ctx.Ctx.txn in
  txn.Txn.mods <- txn.Txn.mods + 1

let lock_relation ctx desc mode =
  Ctx.lock ctx ~mode (Lock_table.Relation desc.Descriptor.rel_id)

let lock_record ctx desc key mode =
  Ctx.lock ctx ~mode
    (Lock_table.Record
       (desc.Descriptor.rel_id, Bytes.to_string (Record_key.encode key)))

let ( let* ) = Result.bind

(* ---- dispatch spans ---------------------------------------------------- *)
(* Attribute closures run only when some telemetry sink is armed; the
   disabled path costs one branch per wrapper. [key] charges the bracketed
   work to the profile aggregator under that (vector, slot) key —
   vector-boundary sites (smethod/attachment slots) pass it, purely
   observational spans do not. *)

let result_outcome = function
  | Ok _ -> ("ok", [])
  | Error (Error.Veto { reason; _ }) ->
    ("veto", [ ("reason", Dmx_obs.Obs_json.Str reason) ])
  | Error e -> ("error", [ ("reason", Dmx_obs.Obs_json.Str (Error.to_string e)) ])

let with_result_span ?key name ~txid attrs f =
  if not (Dmx_obs.Emit.active ()) then f ()
  else begin
    let sp = Dmx_obs.Emit.enter name ~txid ?key ~attrs:(attrs ()) in
    match f () with
    | r ->
      let outcome, attrs = result_outcome r in
      Dmx_obs.Emit.exit ~outcome ~attrs sp;
      r
    | exception e ->
      Dmx_obs.Emit.exit ~outcome:"exn" sp;
      raise e
  end

let rel_span ctx desc op f =
  with_result_span ("relation." ^ op) ~txid:ctx.Ctx.txn.Txn.id
    (fun () ->
      [ ("rel", Dmx_obs.Obs_json.Str desc.Descriptor.rel_name);
        ("rel_id", Dmx_obs.Obs_json.Int desc.Descriptor.rel_id) ])
    f

let sm_span ctx desc op f =
  with_result_span ("smethod." ^ op) ~txid:ctx.Ctx.txn.Txn.id
    ~key:(Dmx_obs.Profile.Smethod desc.Descriptor.smethod_id)
    (fun () ->
      [ ("smethod_id", Dmx_obs.Obs_json.Int desc.Descriptor.smethod_id) ])
    f

let attachment_label n =
  match Registry.attachment_name n with
  | name -> name
  | exception Invalid_argument _ -> Fmt.str "type:%d" n

(* Invoke each attachment type with instances on the relation, ascending type
   id, through the attached-procedure vectors. [info] supplies the op-specific
   span attributes (key, old/new records), built lazily. *)
let run_attached ctx desc ~op ~info f =
  let rec loop = function
    | [] -> Ok ()
    | n :: rest -> begin
      match Descriptor.attachment_desc desc n with
      | None -> loop rest
      | Some slot -> begin
        Dmx_obs.Metrics.incr m_at_calls;
        let r =
          with_result_span ("attach." ^ op) ~txid:ctx.Ctx.txn.Txn.id
            ~key:(Dmx_obs.Profile.Attachment n)
            (fun () ->
              ("attachment", Dmx_obs.Obs_json.Str (attachment_label n))
              :: ("type_id", Dmx_obs.Obs_json.Int n)
              :: info ())
            (fun () -> f n slot)
        in
        match r with
        | Ok () -> loop rest
        | Error (Error.Veto _) as e ->
          Dmx_obs.Metrics.incr m_vetoes;
          e
        | Error _ as e -> e
      end
    end
  in
  loop (Descriptor.attachment_types_present desc)

let validate desc record =
  match Schema.validate_record desc.Descriptor.schema record with
  | Ok () -> Ok ()
  | Error msg -> Error (Error.Schema_error msg)

(* The two-step dispatch every modification shares: the frozen check and the
   relation span; [prepare], the op's own locks, validation and pre-fetch;
   then, atomically, the storage-method step [sm] in its span, [lock_new]'s
   record locks on its result, and each attachment type present through
   [attached]. [info] builds the attachment spans' op-specific attributes. *)
let modify ctx desc ~op ~prepare ~sm ~lock_new ~info ~attached =
  Invariant.check_frozen_for_dispatch ~op;
  rel_span ctx desc op (fun () ->
      let* pre = prepare () in
      atomically ctx (fun () ->
          modifying ctx;
          let* res = sm_span ctx desc op (fun () -> sm pre) in
          let* () = lock_new res in
          let* () =
            run_attached ctx desc ~op
              ~info:(fun () -> info pre res)
              (attached pre res)
          in
          Ok res))

(* Every insert is a batch: validation, the relation lock, the rollback mark
   and the spans are paid once per batch, and the storage method and each
   attachment type present are dispatched once through the batch vector
   entries (whose defaults loop the per-record slots). A single-row insert
   is a batch of one under its own op name. *)
let insert_records ctx desc ~op ~info records =
  modify ctx desc ~op
    ~prepare:(fun () ->
      let* () =
        Array.fold_left
          (fun acc r ->
            let* () = acc in
            validate desc r)
          (Ok ()) records
      in
      lock_relation ctx desc Dmx_lock.Lock_mode.IX)
    ~sm:(fun () ->
      let* keys =
        Registry.Vec.sm_insert_batch.(desc.Descriptor.smethod_id) ctx desc
          records
      in
      if Array.length keys <> Array.length records then
        Error
          (Error.Internal
             (op
             ^ ": storage method returned a key count different from the \
                batch size"))
      else Ok keys)
    ~lock_new:
      (Array.fold_left
         (fun acc key ->
           let* () = acc in
           lock_record ctx desc key Dmx_lock.Lock_mode.X)
         (Ok ()))
    ~info:(fun () -> info)
    ~attached:(fun () keys ->
      let entries = Array.map2 (fun k r -> (k, r)) keys records in
      fun n slot -> Registry.Vec.at_on_insert_batch.(n) ctx desc ~slot entries)

let insert ctx desc record =
  Result.map
    (fun keys -> keys.(0))
    (insert_records ctx desc ~op:"insert" [| record |] ~info:(fun keys ->
         [ ("key", Dmx_obs.Obs_json.Str (Record_key.to_string keys.(0)));
           ("new", Dmx_obs.Obs_json.Str (Fmt.str "%a" Record.pp record)) ]))

(* Atomic: either every record of the batch is inserted or — on the first
   storage method error or attachment veto — the whole batch rolls back. *)
let insert_many ctx desc records =
  if Array.length records = 0 then begin
    Invariant.check_frozen_for_dispatch ~op:"insert_many";
    Ok [||]
  end
  else
    insert_records ctx desc ~op:"insert_many" records ~info:(fun _ ->
        [ ("batch", Dmx_obs.Obs_json.Int (Array.length records)) ])

let update ctx desc key new_record =
  modify ctx desc ~op:"update"
    ~prepare:(fun () ->
      let* () = validate desc new_record in
      let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IX in
      let* () = lock_record ctx desc key Dmx_lock.Lock_mode.X in
      let (module M : Intf.STORAGE_METHOD) =
        Registry.storage_method desc.Descriptor.smethod_id
      in
      match M.fetch ctx desc key () with
      | None -> Error (Error.Key_not_found (Record_key.to_string key))
      | Some old_record -> Ok old_record)
    ~sm:(fun _ ->
      Registry.Vec.sm_update.(desc.Descriptor.smethod_id) ctx desc key
        new_record)
    ~lock_new:(fun new_key -> lock_record ctx desc new_key Dmx_lock.Lock_mode.X)
    ~info:(fun old_record new_key ->
      [ ("old_key", Dmx_obs.Obs_json.Str (Record_key.to_string key));
        ("new_key", Dmx_obs.Obs_json.Str (Record_key.to_string new_key));
        ("old", Dmx_obs.Obs_json.Str (Fmt.str "%a" Record.pp old_record));
        ("new", Dmx_obs.Obs_json.Str (Fmt.str "%a" Record.pp new_record)) ])
    ~attached:(fun old_record new_key n slot ->
      Registry.Vec.at_on_update.(n) ctx desc ~slot ~old_key:key ~new_key
        ~old_record ~new_record)

let delete ctx desc key =
  modify ctx desc ~op:"delete"
    ~prepare:(fun () ->
      let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IX in
      lock_record ctx desc key Dmx_lock.Lock_mode.X)
    ~sm:(fun () ->
      Registry.Vec.sm_delete.(desc.Descriptor.smethod_id) ctx desc key)
    ~lock_new:(fun _ -> Ok ())
    ~info:(fun () old_record ->
      [ ("key", Dmx_obs.Obs_json.Str (Record_key.to_string key));
        ("old", Dmx_obs.Obs_json.Str (Fmt.str "%a" Record.pp old_record)) ])
    ~attached:(fun () old_record n slot ->
      Registry.Vec.at_on_delete.(n) ctx desc ~slot key old_record)

(* [fetch] is the hottest generic-interface call (the E1 bench drives it);
   the uninstrumented path below is the seed code verbatim so the telemetry
   gate costs the disabled build exactly one load and branch, no closures. *)
let fetch ctx desc key ?fields () =
  if not (Dmx_obs.Emit.active ()) then
    let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
    let (module M : Intf.STORAGE_METHOD) =
      Registry.storage_method desc.Descriptor.smethod_id
    in
    Ok (M.fetch ctx desc key ?fields ())
  else
    rel_span ctx desc "fetch" (fun () ->
      let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
      let (module M : Intf.STORAGE_METHOD) =
        Registry.storage_method desc.Descriptor.smethod_id
      in
      begin
        let sp =
          Dmx_obs.Emit.enter "smethod.fetch" ~txid:ctx.Ctx.txn.Txn.id
            ~key:(Dmx_obs.Profile.Smethod desc.Descriptor.smethod_id)
            ~attrs:
              [ ("smethod_id", Dmx_obs.Obs_json.Int desc.Descriptor.smethod_id) ]
        in
        match M.fetch ctx desc key ?fields () with
        | r ->
          Dmx_obs.Emit.exit sp
            ~attrs:[ ("found", Dmx_obs.Obs_json.Bool (Option.is_some r)) ];
          Ok r
        | exception e ->
          Dmx_obs.Emit.exit ~outcome:"exn" sp;
          raise e
      end)

(* Register a scan with the transaction so termination closes it and
   savepoints capture/restore its position; the returned close also
   unregisters it. *)
let registered_close ctx close capture =
  let id =
    Ctx.register_scan ctx { Txn.scan_close = close; scan_capture = capture }
  in
  fun () ->
    Ctx.unregister_scan ctx id;
    close ()

let scan ctx desc ?lo ?hi ?filter () =
  rel_span ctx desc "scan" (fun () ->
      let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
      let (module M : Intf.STORAGE_METHOD) =
        Registry.storage_method desc.Descriptor.smethod_id
      in
      let s = M.scan ctx desc ?lo ?hi ?filter () in
      Ok { s with rs_close = registered_close ctx s.rs_close s.rs_capture })

(* Vectorized scan through the optional batch vector entry; the default
   chunks the method's record-at-a-time scan, so every storage method is
   batch-scannable. *)
let scan_batch ctx desc ?(lo = Intf.Unbounded) ?(hi = Intf.Unbounded) ?filter
    () =
  rel_span ctx desc "scan_batch" (fun () ->
      let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
      let s =
        Registry.Vec.sm_scan_batch.(desc.Descriptor.smethod_id) ctx desc ~lo
          ~hi ~filter
      in
      Ok { s with rn_close = registered_close ctx s.rn_close s.rn_capture })

let lookup ctx desc ~attachment_id ~instance ~key =
  rel_span ctx desc "lookup" @@ fun () ->
  let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
  match Descriptor.attachment_desc desc attachment_id with
  | None ->
    Error
      (Error.No_such_attachment
         (Fmt.str "relation %S has no attachment of type %d"
            desc.Descriptor.rel_name attachment_id))
  | Some slot ->
    let (module A : Intf.ATTACHMENT) = Registry.attachment attachment_id in
    Ok (A.lookup ctx desc ~slot ~instance ~key)

let attachment_scan ctx desc ~attachment_id ~instance ?lo ?hi () =
  let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
  match Descriptor.attachment_desc desc attachment_id with
  | None ->
    Error
      (Error.No_such_attachment
         (Fmt.str "relation %S has no attachment of type %d"
            desc.Descriptor.rel_name attachment_id))
  | Some slot ->
    let (module A : Intf.ATTACHMENT) = Registry.attachment attachment_id in
    begin
      match A.scan ctx desc ~slot ~instance ?lo ?hi () with
      | None ->
        Error
          (Error.No_such_attachment
             (Fmt.str "attachment type %d offers no key-sequential access"
                attachment_id))
      | Some s ->
        Ok { s with ks_close = registered_close ctx s.ks_close s.ks_capture }
    end

let record_count ctx desc =
  let* () = lock_relation ctx desc Dmx_lock.Lock_mode.IS in
  let (module M : Intf.STORAGE_METHOD) =
    Registry.storage_method desc.Descriptor.smethod_id
  in
  Ok (M.record_count ctx desc)
