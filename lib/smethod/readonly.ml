open Dmx_value
open Dmx_page
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog
module Log_record = Dmx_wal.Log_record

include Registry.Smethod (struct
  let name = "readonly"
end)

(* The heap's descriptor (its directory's head) and the seal flag: the
   heap's entries that read only the head take it as it is. *)
type rdesc = { head : int; sealed : bool }

let enc_desc d =
  let e = Codec.Enc.create ~size:8 () in
  Codec.Enc.varint e d.head;
  Codec.Enc.bool e d.sealed;
  Codec.Enc.to_string e

let rdesc_of (desc : Descriptor.t) =
  let d = Codec.Dec.of_string desc.smethod_desc in
  let head = Codec.Dec.varint d in
  { head; sealed = Codec.Dec.bool d }

let is_sealed desc = (rdesc_of desc).sealed

(* Sealing changes the descriptor, so it is logged as a catalog change: its
   transaction saves the snapshot at commit, and an abort undoes it. *)
let seal ctx (desc : Descriptor.t) =
  let rd = rdesc_of desc in
  if not rd.sealed then begin
    let new_desc = enc_desc { rd with sealed = true } in
    ignore
      (Ctx.log ctx ~source:Log_record.Catalog ~rel_id:desc.rel_id
         ~data:
           (Catalog.encode_op
              (Catalog.Set_smethod
                 { rel_id = desc.rel_id; old_desc = desc.smethod_desc; new_desc })));
    Catalog.set_smethod_desc ctx.Ctx.catalog ~rel_id:desc.rel_id new_desc
  end

module Impl = struct
  let name = "readonly"
  let attr_specs = []

  let create ctx ~rel_id _schema _attrs =
    ignore rel_id;
    Ok (enc_desc { head = Heap.create_head ctx; sealed = false })

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
      let log = log ctx ~rel_id:desc.rel_id in
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
        match Option.bind (Heap.last_page ctx rd.head) append with
        | Some key -> Some key
        | None -> append (Heap.log_new_page ctx ~log rd.head)
      in
      match placed with
      | None -> Error (Error.Internal "readonly: append failed")
      | Some key ->
        Heap.add_count ctx rd.head 1;
        Ok key
    end

  let fetch = Heap.fetch

  let write_once (desc : Descriptor.t) =
    Error (Error.Read_only (Fmt.str "relation %S is write-once" desc.rel_name))

  let delete _ctx desc _key = write_once desc
  let update _ctx desc _key _record = write_once desc

  let key_fields _ = None
  let record_count = Heap.record_count
  let scan_batch ctx desc ~lo:_ ~hi:_ ~filter = Heap.scan_pages ctx desc ~filter
  let scan = Heap.scan
  let estimate_scan = Heap.estimate_scan
  let undo = Heap.undo
  let redo = Heap.redo
end

include Impl

let register () =
  register ~scan_batch ~page_bound:Heap.page_bound ~redo:Impl.redo
    (module Impl : Intf.STORAGE_METHOD)
