open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Rtree = Dmx_rtree.Rtree
module Rect = Dmx_rtree.Rect

type inst = { rect_fields : int array; root : int }

module Slot = Attach_util.Slot (struct
  let name = "rtree_index"

  type t = inst

  let enc e i =
    Codec.Enc.list e (fun e f -> Codec.Enc.varint e f)
      (Array.to_list i.rect_fields);
    Codec.Enc.varint e i.root

  let dec d =
    let rect_fields = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
    let root = Codec.Dec.varint d in
    { rect_fields; root }
end)

let id = Slot.id

let ( let* ) = Result.bind

(* The rectangle of four values [v 0 .. v 3], or why they make none (a NULL
   or non-numeric value). *)
let rect_of v =
  let f i =
    match Value.to_float (v i) with
    | Some f -> Ok f
    | None ->
      Error (Fmt.str "rtree: non-numeric rectangle value %a" Value.pp (v i))
  in
  let* xlo = f 0 in
  let* ylo = f 1 in
  let* xhi = f 2 in
  let* yhi = f 3 in
  Ok (Rect.make ~xlo ~ylo ~xhi ~yhi)

let rect_of_record inst record =
  rect_of (fun i -> record.(inst.rect_fields.(i)))

let rect_of_vals vals =
  if Array.length vals <> 4 then
    Error.raise_err (Error.Internal "rtree: key must be 4 values")
  else rect_of (Array.get vals)

let tree ctx inst = Rtree.open_tree ctx.Ctx.bp ~root:inst.root
let payload_of reckey = Bytes.to_string (Record_key.encode reckey)

(* ---- entry images ---- *)

(* An index entry (instance, rectangle, record key) is the target of a
   presence image. *)
let enc_entry e (no, rect, reckey) =
  Codec.Enc.varint e no;
  Rect.enc e rect;
  Record_key.enc e reckey

let dec_entry d =
  let no = Codec.Dec.varint d in
  let rect = Rect.dec d in
  (no, rect, Record_key.dec d)

let set_entry ctx inst ((_, rect, reckey) as entry) ~log f =
  let t = tree ctx inst and payload = payload_of reckey in
  Image.change enc_entry ~log
    ~read:(fun () ->
      Image.presence
        (List.exists
           (fun (r, p) -> Rect.equal r rect && p = payload)
           (Rtree.search_enclosed_by t rect)))
    ~write:(function
      | Some _ -> Rtree.insert t ~rect ~payload
      | None -> ignore (Rtree.delete t ~rect ~payload))
    entry f

let put ctx desc no inst rect reckey present =
  ignore
    (set_entry ctx inst (no, rect, reckey) ~log:(Slot.log ctx desc) (fun _ ->
         Image.presence present))

(* The eligible ENCLOSES conjunct matching this instance's rectangle
   fields, with its (plannable) query rectangle expressions. *)
let encloses_match inst eligible =
  List.find_map
    (fun conjunct ->
      match Dmx_expr.Analyze.sarg_of_conjunct conjunct with
      | Some (Dmx_expr.Analyze.Encloses (fields, query_exprs))
        when fields = inst.rect_fields -> Some (conjunct, query_exprs)
      | _ -> None)
    eligible

module Impl = struct
  let name = "rtree_index"

  let attr_specs = [ Attrlist.spec ~required:true "rect" Attrlist.A_string ]

  let create_instance ctx (desc : Descriptor.t) ~instance_name attrs =
    Slot.add desc ~instance_name ~what:"rtree index" (fun () ->
        match
          Attach_util.parse_fields desc.schema
            (Option.get (Attrlist.find attrs "rect"))
        with
        | Error e -> Error (Error.Ddl_error e)
        | Ok rect_fields when Array.length rect_fields <> 4 ->
          Error (Error.Ddl_error "rect must name exactly four columns")
        | Ok rect_fields ->
          let rtree = Rtree.create ctx.Ctx.bp in
          let inst = { rect_fields; root = Rtree.root rtree } in
          let refused = ref None in
          Attach_util.scan_relation ctx desc (fun reckey record ->
              if !refused = None then
                match rect_of_record inst record with
                | Ok rect ->
                  Rtree.insert rtree ~rect ~payload:(payload_of reckey)
                | Error reason -> refused := Some reason);
          match !refused with
          | Some reason ->
            Error (Error.Constraint_violation ("existing records: " ^ reason))
          | None -> Ok inst)

  let drop_instance _ctx = Slot.drop_instance

  let on_insert ctx (desc : Descriptor.t) ~slot reckey record =
    Slot.each slot (fun no _name inst ->
        match rect_of_record inst record with
        | Ok rect ->
          put ctx desc no inst rect reckey true;
          Ok ()
        | Error msg -> Error (Error.veto ~attachment:"rtree_index" msg))

  let on_delete ctx (desc : Descriptor.t) ~slot reckey record =
    Slot.each slot (fun no _name inst ->
        match rect_of_record inst record with
        | Ok rect ->
          put ctx desc no inst rect reckey false;
          Ok ()
        | Error msg -> Error (Error.veto ~attachment:"rtree_index" msg))

  let on_update ctx (desc : Descriptor.t) ~slot ~old_key ~new_key ~old_record
      ~new_record =
    Slot.each slot (fun no _name inst ->
        match
          (rect_of_record inst old_record, rect_of_record inst new_record)
        with
        | Ok old_rect, Ok new_rect ->
          if Rect.equal old_rect new_rect && Record_key.equal old_key new_key
          then Ok ()
          else begin
            put ctx desc no inst old_rect old_key false;
            put ctx desc no inst new_rect new_key true;
            Ok ()
          end
        | Error msg, _ | _, Error msg ->
          Error (Error.veto ~attachment:"rtree_index" msg))

  (* Input key = query rectangle; result = keys of records whose rectangles
     the query encloses (the ENCLOSES predicate). A query rectangle with a
     NULL value encloses nothing, as ENCLOSES is then not true. *)
  let lookup ctx (desc : Descriptor.t) ~slot ~instance ~key =
    ignore desc;
    match Slot.by_no slot instance, rect_of_vals key with
    | None, _ | _, Error _ -> []
    | Some inst, Ok rect ->
      Rtree.search_enclosed_by (tree ctx inst) rect
      |> List.map (fun (_, payload) ->
             Record_key.decode (Bytes.of_string payload))

  let scan _ctx _desc ~slot:_ ~instance:_ ?lo:_ ?hi:_ () = None

  let estimate ctx (desc : Descriptor.t) ~slot ~eligible =
    ignore desc;
    List.filter_map
      (fun (no, _name, inst) ->
        match encloses_match inst eligible with
        | None -> None
        | Some (conjunct, query_exprs) ->
          let t = tree ctx inst in
          let height = float_of_int (Rtree.height t) in
          let rows = float_of_int (max 1 (Rtree.count t)) in
          (* Index dip: a constant query rectangle is searched for the
             actual result count. *)
          let qualifying =
            let const_rect =
              let vals =
                Array.map
                  (fun e -> Dmx_expr.Analyze.const_value e)
                  query_exprs
              in
              if Array.exists (fun v -> v = None) vals then None
              else Some (Array.map Option.get vals)
            in
            match const_rect with
            | Some vals -> begin
              match rect_of_vals vals with
              | Ok rect ->
                float_of_int
                  (max 1 (List.length (Rtree.search_enclosed_by t rect)))
              | Error _ -> Float.max 1. (rows *. 0.05)
            end
            | None -> Float.max 1. (rows *. 0.05)
          in
          Some
            {
              Intf.ac_instance = no;
              ac_key_fields = None;
              ac_spatial_rect = Some query_exprs;
              ac_estimate =
                {
                  Cost.cost =
                    Cost.make ~io:(height +. (qualifying /. 16.)) ~cpu:qualifying;
                  est_rows = qualifying;
                  matched = [ conjunct ];
                  residual =
                    List.filter (fun c -> not (c == conjunct)) eligible;
                  ordered_by = None;
                };
            })
      (Slot.decode slot)

  let undo ctx ~rel_id ~data =
    let img = Image.decode dec_entry data in
    let no, _, _ = img.target in
    match Slot.in_catalog ctx ~rel_id no with
    | Some inst when Dmx_page.Buffer_pool.page_live ctx.Ctx.bp inst.root ->
      ignore (Image.undo img ~set:(set_entry ctx inst img.target ~log:ignore))
    | Some _ | None -> () (* tree lost with the crash: nothing durable *)

  (* A lost split is made again on fresh pages by the re-run change. *)
  let redo ctx ~rel_id ~data =
    let img = Image.decode dec_entry data in
    let no, _, _ = img.target in
    match Slot.in_catalog ctx ~rel_id no with
    | Some inst
      when Dmx_page.Buffer_pool.page_live ctx.Ctx.bp inst.root
           && Image.redo img ~set:(set_entry ctx inst img.target ~log:ignore) ->
      Ctx.applied ctx
    | Some _ | None -> ()
end

include Impl

let lookup_overlapping ctx (desc : Descriptor.t) ~instance rect =
  match
    Option.bind (Descriptor.attachment_desc desc (id ())) (fun slot ->
        Slot.by_no slot instance)
  with
  | None -> []
  | Some inst ->
    Rtree.search_overlapping (tree ctx inst) rect
    |> List.map (fun (_, payload) ->
           Record_key.decode (Bytes.of_string payload))

let register () = Slot.register ~redo:Impl.redo (module Impl : Intf.ATTACHMENT)
