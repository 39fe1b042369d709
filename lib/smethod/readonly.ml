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

let with_page ctx page f =
  let frame =
    Buffer_pool.pin ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id ctx.Ctx.bp page
  in
  Fun.protect
    ~finally:(fun () -> Buffer_pool.unpin ctx.Ctx.bp frame)
    (fun () -> f frame.Buffer_pool.data)

let with_page_mut ctx page f =
  let frame =
    Buffer_pool.pin ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id ctx.Ctx.bp page
  in
  Fun.protect
    ~finally:(fun () -> Buffer_pool.unpin ~dirty:true ctx.Ctx.bp frame)
    (fun () -> f frame.Buffer_pool.data)

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
        with_page_mut ctx page (fun data ->
            let slot = Slotted.next_slot data in
            if not (Slotted.fits data slot payload) then None
            else begin
              ignore (Heap.set_slot data (page, slot) ~log (fun _ -> Some payload));
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

  let fetch ctx (desc : Descriptor.t) key ?fields () =
    ignore desc;
    match key with
    | Record_key.Fields _ -> None
    | Record_key.Rid { page; slot } -> begin
      match with_page ctx page (fun data -> Slotted.read data slot) with
      | None -> None
      | Some payload ->
        let record = Codec.decode_record (Bytes.of_string payload) in
        Some
          (match fields with
          | None -> record
          | Some fs -> Record.project record fs)
    end

  let delete _ctx (desc : Descriptor.t) _key =
    Error (Error.Read_only (Fmt.str "relation %S is write-once" desc.rel_name))

  let update _ctx (desc : Descriptor.t) _key _record =
    Error (Error.Read_only (Fmt.str "relation %S is write-once" desc.rel_name))

  let key_fields _ = None

  let record_count ctx (desc : Descriptor.t) =
    ignore ctx;
    (rdesc_of desc).count

  let scan ctx (desc : Descriptor.t) ?lo ?hi ?filter () =
    ignore lo;
    ignore hi;
    let pages = Array.of_list (rdesc_of desc).pages in
    let pos = ref (-1, -1) in
    let next () =
      let rec advance page_idx slot =
        if page_idx >= Array.length pages then None
        else
          let page = pages.(page_idx) in
          let hit =
            with_page ctx page (fun data ->
                let n = Slotted.slot_count data in
                let rec try_slot s =
                  if s >= n then None
                  else
                    match Slotted.read data s with
                    | Some payload -> Some (s, payload)
                    | None -> try_slot (s + 1)
                in
                try_slot slot)
          in
          match hit with
          | Some (s, payload) ->
            pos := (page_idx, s);
            Some
              ( Record_key.rid ~page ~slot:s,
                Codec.decode_record (Bytes.of_string payload) )
          | None -> advance (page_idx + 1) 0
      in
      let page_idx, slot = !pos in
      if page_idx < 0 then advance 0 0 else advance page_idx (slot + 1)
    in
    Scan_help.filtered ?filter ~next
      ~close:(fun () -> ())
      ~capture:(fun () ->
        let saved = !pos in
        fun () -> pos := saved)
      ()

  let estimate_scan ctx (desc : Descriptor.t) ~eligible =
    ignore ctx;
    let rd = rdesc_of desc in
    let pages = float_of_int (max 1 (List.length rd.pages)) in
    let rows = float_of_int rd.count in
    let sel =
      List.fold_left
        (fun acc p -> acc *. Dmx_expr.Analyze.selectivity p)
        1.0 eligible
    in
    {
      Cost.cost = Cost.make ~io:pages ~cpu:(rows *. 2.);
      est_rows = rows *. sel;
      matched = eligible;
      residual = [];
      ordered_by = None;
    }

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
    id
