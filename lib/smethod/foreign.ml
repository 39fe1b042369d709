open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist

include Registry.Smethod (struct
  let name = "foreign"
end)

let message_cost = 2.0

type fdesc = { server : string; remote_rel : string }

let enc_desc d =
  let e = Codec.Enc.create () in
  Codec.Enc.string e d.server;
  Codec.Enc.string e d.remote_rel;
  Codec.Enc.to_string e

let dec_desc s =
  let d = Codec.Dec.of_string s in
  let server = Codec.Dec.string d in
  let remote_rel = Codec.Dec.string d in
  { server; remote_rel }

let fdesc_of (desc : Descriptor.t) = dec_desc desc.smethod_desc

let server_of fd =
  match Remote_server.find fd.server with
  | Some s -> Ok s
  | None ->
    Error (Error.Internal (Fmt.str "foreign server %S unreachable" fd.server))

let remote_key rid = Record_key.rid ~page:0 ~slot:rid

let rid_of = function
  | Record_key.Rid { page = 0; slot } -> Some slot
  | Record_key.Rid _ | Record_key.Fields _ -> None

(* ---- log payloads (compensating-message undo) ---- *)

type op =
  | Ins of int * Record.t
  | Del of int * Record.t
  | Upd of int * Record.t * Record.t

let enc_op op =
  let e = Codec.Enc.create () in
  (match op with
  | Ins (rid, r) ->
    Codec.Enc.byte e 0;
    Codec.Enc.varint e rid;
    Codec.Enc.record e r
  | Del (rid, r) ->
    Codec.Enc.byte e 1;
    Codec.Enc.varint e rid;
    Codec.Enc.record e r
  | Upd (rid, o, n) ->
    Codec.Enc.byte e 2;
    Codec.Enc.varint e rid;
    Codec.Enc.record e o;
    Codec.Enc.record e n);
  Codec.Enc.to_string e

let dec_op s =
  let d = Codec.Dec.of_string s in
  match Codec.Dec.byte d with
  | 0 ->
    let rid = Codec.Dec.varint d in
    Ins (rid, Codec.Dec.record d)
  | 1 ->
    let rid = Codec.Dec.varint d in
    Del (rid, Codec.Dec.record d)
  | 2 ->
    let rid = Codec.Dec.varint d in
    let o = Codec.Dec.record d in
    let n = Codec.Dec.record d in
    Upd (rid, o, n)
  | n -> Error.raise_err (Error.Internal (Fmt.str "Foreign: bad op tag %d" n))

let ( let* ) = Result.bind

module Impl = struct
  let name = "foreign"

  let attr_specs =
    [
      Attrlist.spec ~required:true "server" Attrlist.A_string;
      Attrlist.spec ~required:true "relation" Attrlist.A_string;
    ]

  let create ctx ~rel_id _schema attrs =
    ignore ctx;
    ignore rel_id;
    let fd =
      {
        server = Option.get (Attrlist.find attrs "server");
        remote_rel = Option.get (Attrlist.find attrs "relation");
      }
    in
    let* srv = server_of fd in
    (* Adopt an existing remote relation or create a fresh one. *)
    ignore (Remote_server.send srv (Create_rel fd.remote_rel));
    Ok (enc_desc fd)

  let destroy ctx ~rel_id ~smethod_desc =
    ignore ctx;
    ignore rel_id;
    let fd = dec_desc smethod_desc in
    match server_of fd with
    | Error _ -> ()
    | Ok srv -> ignore (Remote_server.send srv (Drop_rel fd.remote_rel))

  let insert ctx (desc : Descriptor.t) record =
    let fd = fdesc_of desc in
    let* srv = server_of fd in
    match Remote_server.send srv (Insert (fd.remote_rel, record)) with
    | Ok_id rid ->
      log ctx ~rel_id:desc.rel_id (enc_op (Ins (rid, record)));
      Ok (remote_key rid)
    | Remote_error e -> Error (Error.Internal e)
    | _ -> Error (Error.Internal "foreign: protocol error")

  let fetch ctx (desc : Descriptor.t) key ?fields () =
    ignore ctx;
    let fd = fdesc_of desc in
    match rid_of key, server_of fd with
    | Some rid, Ok srv -> begin
      match Remote_server.send srv (Fetch (fd.remote_rel, rid)) with
      | Ok_record (Some record) ->
        Some
          (match fields with
          | None -> record
          | Some fs -> Record.project record fs)
      | _ -> None
    end
    | _ -> None

  let delete ctx (desc : Descriptor.t) key =
    let fd = fdesc_of desc in
    let* srv = server_of fd in
    match rid_of key with
    | None -> Error (Error.Key_not_found (Record_key.to_string key))
    | Some rid -> begin
      match Remote_server.send srv (Delete (fd.remote_rel, rid)) with
      | Ok_record (Some record) ->
        log ctx ~rel_id:desc.rel_id (enc_op (Del (rid, record)));
        Ok record
      | Ok_record None | Remote_error _ ->
        Error (Error.Key_not_found (Record_key.to_string key))
      | _ -> Error (Error.Internal "foreign: protocol error")
    end

  let update ctx (desc : Descriptor.t) key new_record =
    let fd = fdesc_of desc in
    let* srv = server_of fd in
    match rid_of key with
    | None -> Error (Error.Key_not_found (Record_key.to_string key))
    | Some rid -> begin
      match Remote_server.send srv (Fetch (fd.remote_rel, rid)) with
      | Ok_record (Some old_record) -> begin
        match Remote_server.send srv (Update (fd.remote_rel, rid, new_record)) with
        | Ok_unit ->
          log ctx ~rel_id:desc.rel_id
            (enc_op (Upd (rid, old_record, new_record)));
          Ok key
        | Remote_error e -> Error (Error.Internal e)
        | _ -> Error (Error.Internal "foreign: protocol error")
      end
      | _ -> Error (Error.Key_not_found (Record_key.to_string key))
    end

  let key_fields _ = None

  let record_count ctx (desc : Descriptor.t) =
    ignore ctx;
    let fd = fdesc_of desc in
    match server_of fd with
    | Error _ -> 0
    | Ok srv -> begin
      match Remote_server.send srv (Count fd.remote_rel) with
      | Ok_count n -> n
      | _ -> 0
    end

  let scan ctx (desc : Descriptor.t) ?lo ?hi ?filter () =
    ignore ctx;
    ignore lo;
    ignore hi;
    let fd = fdesc_of desc in
    let pos = ref 0 in
    let next () =
      match server_of fd with
      | Error _ -> None
      | Ok srv -> begin
        match Remote_server.send srv (Scan_next (fd.remote_rel, !pos)) with
        | Ok_scan (Some (rid, record)) ->
          pos := rid;
          Some (remote_key rid, record)
        | _ -> None
      end
    in
    Scan_help.filtered ?filter ~next
      ~close:(fun () -> ())
      ~capture:(fun () ->
        let saved = !pos in
        fun () -> pos := saved)
      ()

  let estimate_scan ctx (desc : Descriptor.t) ~eligible =
    let rows = float_of_int (record_count ctx desc) in
    let sel =
      List.fold_left
        (fun acc p -> acc *. Dmx_expr.Analyze.selectivity p)
        1.0 eligible
    in
    {
      (* One message round trip per record: remote scans are expensive, which
         is exactly what the planner should see. *)
      Cost.cost = Cost.make ~io:(rows *. message_cost) ~cpu:rows;
      est_rows = rows *. sel;
      matched = eligible;
      residual = [];
      ordered_by = None;
    }

  let undo ctx (* compensating messages *) ~rel_id ~data =
    match Dmx_catalog.Catalog.find_by_id ctx.Ctx.catalog rel_id with
    | None -> ()
    | Some desc -> begin
      let fd = fdesc_of desc in
      match server_of fd with
      | Error _ -> ()
      | Ok srv -> begin
        match dec_op data with
        | Ins (rid, record) -> begin
          match Remote_server.send srv (Fetch (fd.remote_rel, rid)) with
          | Ok_record (Some r) when Record.equal r record ->
            ignore (Remote_server.send srv (Delete (fd.remote_rel, rid)))
          | _ -> ()
        end
        | Del (rid, record) -> begin
          match Remote_server.send srv (Fetch (fd.remote_rel, rid)) with
          | Ok_record None ->
            (* The remote server reassigns ids; reinstate under the update
               protocol by re-inserting (remote id changes are acceptable for
               a foreign relation whose keys the gateway owns only while the
               transaction is active). *)
            ignore (Remote_server.send srv (Insert (fd.remote_rel, record)))
          | _ -> ()
        end
        | Upd (rid, old_record, new_record) -> begin
          match Remote_server.send srv (Fetch (fd.remote_rel, rid)) with
          | Ok_record (Some r) when Record.equal r new_record ->
            ignore
              (Remote_server.send srv (Update (fd.remote_rel, rid, old_record)))
          | _ -> ()
        end
      end
    end

  (* The remote server applied each message when it was sent; nothing
     local is left to repeat. *)
  let redo _ctx ~rel_id:_ ~data:_ = ()
end

include Impl

let register () = register ~redo:Impl.redo (module Impl : Intf.STORAGE_METHOD)
