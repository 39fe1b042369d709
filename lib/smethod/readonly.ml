open Dmx_value
open Dmx_page
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog
module Log_record = Dmx_wal.Log_record

let reg_id : int option ref = ref None [@@dmx.global "config-immutable-after-setup"]

let id () =
  match !reg_id with
  | Some id -> id
  | None -> Error.raise_err (Error.Internal "Readonly: storage method not registered")

type rdesc = { pages : int list; count : int; sealed : bool }

let enc_desc d =
  let e = Codec.Enc.create () in
  Codec.Enc.list e (fun e p -> Codec.Enc.varint e p) d.pages;
  Codec.Enc.varint e d.count;
  Codec.Enc.bool e d.sealed;
  Codec.Enc.to_string e

let dec_desc s =
  let d = Codec.Dec.of_string s in
  let pages = Codec.Dec.list d Codec.Dec.varint in
  let count = Codec.Dec.varint d in
  let sealed = Codec.Dec.bool d in
  { pages; count; sealed }

let rdesc_of (desc : Descriptor.t) = dec_desc desc.smethod_desc

let store_desc ctx (desc : Descriptor.t) rd =
  Catalog.set_smethod_desc ctx.Ctx.catalog ~rel_id:desc.rel_id (enc_desc rd)

let is_sealed desc = (rdesc_of desc).sealed

let seal ctx desc =
  let rd = rdesc_of desc in
  store_desc ctx desc { rd with sealed = true }

module Impl = struct
  let name = "readonly"
  let attr_specs = []

  let create ctx ~rel_id _schema attrs =
    ignore ctx;
    ignore rel_id;
    match Attrlist.validate attr_specs attrs with
    | Error e -> Error (Error.Ddl_error e)
    | Ok () -> Ok (enc_desc { pages = []; count = 0; sealed = false })

  let destroy ctx ~rel_id ~smethod_desc =
    ignore ctx;
    ignore rel_id;
    ignore smethod_desc

  let insert ctx (desc : Descriptor.t) record =
    let rd = rdesc_of desc in
    if rd.sealed then
      Error (Error.Read_only (Fmt.str "relation %S is sealed" desc.rel_name))
    else begin
      let payload = Bytes.to_string (Codec.encode_record record) in
      let log data =
        ignore
          (Ctx.log ctx ~source:(Log_record.Smethod (id ())) ~rel_id:desc.rel_id
             ~data)
      in
      let append page =
        Buffer_pool.with_page_mut ctx.Ctx.bp page (fun frame ->
            let data = frame.Buffer_pool.data in
            let slot = Slotted.next_slot data in
            if not (Slotted.fits data slot payload) then None
            else begin
              ignore
                (Heap.set_slot data (page, slot) ~log (fun _ -> Some payload));
              Some (Record_key.rid ~page ~slot)
            end)
      in
      (* Strictly append to the last page: write-once media do not seek
         backwards for free space. *)
      let placed =
        match Option.bind (List.nth_opt (List.rev rd.pages) 0) append with
        | Some key -> Some (key, rd)
        | None ->
          let frame = Buffer_pool.alloc ctx.Ctx.bp in
          Slotted.init frame.Buffer_pool.data;
          Buffer_pool.unpin ~dirty:true ctx.Ctx.bp frame;
          let p = frame.Buffer_pool.page_id in
          Option.map
            (fun key -> (key, { rd with pages = rd.pages @ [ p ] }))
            (append p)
      in
      match placed with
      | None -> Error (Error.Internal "readonly: append failed")
      | Some (key, rd) ->
        store_desc ctx desc { rd with count = rd.count + 1 };
        Ok key
    end

  let fetch = Heap.fetch

  let write_once (desc : Descriptor.t) =
    Error (Error.Read_only (Fmt.str "relation %S is write-once" desc.rel_name))

  let delete _ctx desc _key = write_once desc
  let update _ctx desc _key _record = write_once desc

  let key_fields _ = None

  let record_count ctx (desc : Descriptor.t) =
    ignore ctx;
    (rdesc_of desc).count

  let scan_batch ctx desc ~lo:_ ~hi:_ ~filter =
    Heap.scan_pages ctx desc ~pages:(rdesc_of desc).pages ~filter

  let scan ctx desc ?(lo = Intf.Unbounded) ?(hi = Intf.Unbounded) ?filter () =
    Scan_help.records_of_runs ctx (scan_batch ctx desc ~lo ~hi ~filter)

  let estimate_scan _ctx desc ~eligible =
    let rd = rdesc_of desc in
    Heap.estimate_pages ~pages:rd.pages ~count:rd.count ~eligible

  (* The count follows an insert that undo actually reversed (not when
     restart repeats a Clr). *)
  let undo ctx ~rel_id ~data =
    Option.iter
      (fun desc ->
        let rd = rdesc_of desc in
        let delta = Heap.undo_slot ctx ~pages:rd.pages data in
        if delta <> 0 && not ctx.Ctx.replay then
          store_desc ctx desc { rd with count = max 0 (rd.count + delta) })
      (Catalog.find_by_id ctx.Ctx.catalog rel_id)

  let redo ctx ~rel_id ~data =
    Option.iter
      (fun desc ->
        if Heap.redo_slot ctx ~pages:(rdesc_of desc).pages data then
          Ctx.applied ctx)
      (Catalog.find_by_id ctx.Ctx.catalog rel_id)
end

include Impl

let register () =
  match !reg_id with
  | Some id -> id
  | None ->
    let id =
      Registry.register_storage_method (module Impl : Intf.STORAGE_METHOD)
    in
    reg_id := Some id;
    Registry.set_sm_redo id Impl.redo;
    Registry.set_sm_scan_batch id Impl.scan_batch;
    id
