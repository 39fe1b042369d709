open Dmx_value
open Dmx_page
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Log_record = Dmx_wal.Log_record

type field_stats = {
  field : int;
  sum : int64;
  nulls : int;
  min_seen : Value.t;
  max_seen : Value.t;
}

type stats = { live_count : int; per_field : field_stats list }

(* Instance payload: tracked fields + the page holding the stats data. *)
type inst = { fields : int array; page : int }

module Slot = Attach_util.Slot (struct
  let name = "stats"

  type t = inst

  let enc e i =
    Codec.Enc.list e (fun e f -> Codec.Enc.varint e f) (Array.to_list i.fields);
    Codec.Enc.varint e i.page

  let dec d =
    let fields = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
    let page = Codec.Dec.varint d in
    { fields; page }
end)

let id = Slot.id

let enc_stats s =
  let e = Codec.Enc.create () in
  Codec.Enc.varint e s.live_count;
  Codec.Enc.list e
    (fun e f ->
      Codec.Enc.varint e f.field;
      Codec.Enc.int64 e f.sum;
      Codec.Enc.varint e f.nulls;
      Codec.Enc.value e f.min_seen;
      Codec.Enc.value e f.max_seen)
    s.per_field;
  Codec.Enc.to_string e

let dec_stats s =
  let d = Codec.Dec.of_string s in
  let live_count = Codec.Dec.varint d in
  let per_field =
    Codec.Dec.list d (fun d ->
        let field = Codec.Dec.varint d in
        let sum = Codec.Dec.int64 d in
        let nulls = Codec.Dec.varint d in
        let min_seen = Codec.Dec.value d in
        let max_seen = Codec.Dec.value d in
        { field; sum; nulls; min_seen; max_seen })
  in
  { live_count; per_field }

(* Page layout: u16 length of the encoded stats, the i64 LSN stamp of the
   last delta applied, the stats. Deltas are not idempotent, so redo and
   undo apply one only when the replayed record's LSN is above the stamp
   (DESIGN.md §15). *)
let decode_page data =
  let len = Bytes.get_uint16_le data 0 in
  (Bytes.get_int64_le data 2, dec_stats (Bytes.sub_string data 10 len))

let encode_page data ~stamp s =
  let enc = enc_stats s in
  Bytes.set_uint16_le data 0 (String.length enc);
  Bytes.set_int64_le data 2 stamp;
  Bytes.blit_string enc 0 data 10 (String.length enc)

let read_stats ctx page =
  Buffer_pool.with_page ctx.Ctx.bp page (fun frame ->
      snd (decode_page frame.Buffer_pool.data))

(* The read-modify-write of the page under one pin: [f stamp stats] gives
   the new stamp and stats, or [None] to leave the page alone. The pin comes
   first, so a logged delta is always applied: any I/O (an eviction to make
   room) happens before [f] runs. The frame's page LSN is the stamp, which
   an undo takes before its Clr is appended: write-back hardens the log up
   to the Clr before the page. *)
let update_page ctx page f =
  let bp = ctx.Ctx.bp in
  let frame = Buffer_pool.pin ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id bp page in
  let changed = ref None in
  Fun.protect
    ~finally:(fun () ->
      Buffer_pool.unpin ~dirty:(!changed <> None) ?lsn:!changed bp frame)
    (fun () ->
      let data = frame.Buffer_pool.data in
      let stamp, stats = decode_page data in
      match f stamp stats with
      | None -> ()
      | Some (stamp, stats) ->
        encode_page data ~stamp stats;
        changed := Some stamp);
  !changed <> None

(* ---- deltas ---- *)

type delta = {
  d_count : int;
  d_fields : (int * int64 * int) list;  (* field, sum delta, nulls delta *)
  widen : (int * Value.t) list;  (* field, value seen (insert only) *)
}

let enc_delta no dl =
  let e = Codec.Enc.create () in
  Codec.Enc.varint e no;
  Codec.Enc.varint e (dl.d_count + 1);  (* shift to keep varint unsigned *)
  Codec.Enc.list e
    (fun e (f, s, n) ->
      Codec.Enc.varint e f;
      Codec.Enc.int64 e s;
      Codec.Enc.varint e (n + 1))
    dl.d_fields;
  Codec.Enc.list e
    (fun e (f, v) ->
      Codec.Enc.varint e f;
      Codec.Enc.value e v)
    dl.widen;
  Codec.Enc.to_string e

let dec_delta s =
  let d = Codec.Dec.of_string s in
  let no = Codec.Dec.varint d in
  let d_count = Codec.Dec.varint d - 1 in
  let d_fields =
    Codec.Dec.list d (fun d ->
        let f = Codec.Dec.varint d in
        let s = Codec.Dec.int64 d in
        let n = Codec.Dec.varint d - 1 in
        (f, s, n))
  in
  let widen =
    Codec.Dec.list d (fun d ->
        let f = Codec.Dec.varint d in
        let v = Codec.Dec.value d in
        (f, v))
  in
  (no, { d_count; d_fields; widen })

let field_delta record sign f =
  match record.(f) with
  | Value.Null -> (f, 0L, sign)
  | Value.Int i -> (f, (if sign > 0 then i else Int64.neg i), 0)
  | _ -> (f, 0L, 0)

let delta_of_record inst record sign =
  {
    d_count = sign;
    d_fields =
      Array.to_list inst.fields |> List.map (field_delta record sign);
    widen =
      (if sign > 0 then
         Array.to_list inst.fields
         |> List.filter_map (fun f ->
                match record.(f) with
                | Value.Null -> None
                | v -> Some (f, v))
       else []);
  }

let apply_delta stats dl =
  let widen_min cur v =
    if cur = Value.Null || Value.compare v cur < 0 then v else cur
  in
  let widen_max cur v =
    if cur = Value.Null || Value.compare v cur > 0 then v else cur
  in
  {
    live_count = max 0 (stats.live_count + dl.d_count);
    per_field =
      List.map
        (fun fs ->
          let fs =
            match List.find_opt (fun (f, _, _) -> f = fs.field) dl.d_fields with
            | None -> fs
            | Some (_, ds, dn) ->
              { fs with sum = Int64.add fs.sum ds; nulls = max 0 (fs.nulls + dn) }
          in
          match List.assoc_opt fs.field dl.widen with
          | None -> fs
          | Some v ->
            {
              fs with
              min_seen = widen_min fs.min_seen v;
              max_seen = widen_max fs.max_seen v;
            })
        stats.per_field;
  }

let negate_delta dl =
  {
    d_count = -dl.d_count;
    d_fields = List.map (fun (f, s, n) -> (f, Int64.neg s, -n)) dl.d_fields;
    widen = [];  (* widening is not undone: min/max stay conservative *)
  }

(* Apply [dl] to the instance's page as the replay of the record at
   [ctx.lsn], unless the page already holds it. *)
let replay ctx inst dl =
  update_page ctx inst.page (fun stamp stats ->
      if ctx.Ctx.lsn > stamp then Some (ctx.Ctx.lsn, apply_delta stats dl)
      else None)

let log_delta ctx rel_id no dl =
  Ctx.log ctx
    ~source:(Log_record.Attachment (id ()))
    ~rel_id ~data:(enc_delta no dl)

(* The delta is logged before the page write, which stamps its LSN. *)
let bump ctx (desc : Descriptor.t) no inst dl =
  ignore
    (update_page ctx inst.page (fun _ stats ->
         let lsn = log_delta ctx desc.rel_id no dl in
         Some (lsn, apply_delta stats dl)));
  Ok ()

let ( let* ) = Result.bind

module Impl = struct
  let name = "stats"
  let attr_specs = [ Attrlist.spec ~required:true "fields" Attrlist.A_string ]

  let create_instance ctx (desc : Descriptor.t) ~instance_name attrs =
    Slot.add desc ~instance_name ~what:"stats instance" (fun () ->
        match
          Attach_util.parse_fields desc.schema
            (Option.get (Attrlist.find attrs "fields"))
        with
        | Error e -> Error (Error.Ddl_error e)
        | Ok fields ->
          let frame = Buffer_pool.alloc ctx.Ctx.bp in
          let page = frame.Buffer_pool.page_id in
          Buffer_pool.unpin ~dirty:true ctx.Ctx.bp frame;
          let inst = { fields; page } in
          let init =
            {
              live_count = 0;
              per_field =
                Array.to_list fields
                |> List.map (fun field ->
                       {
                         field;
                         sum = 0L;
                         nulls = 0;
                         min_seen = Value.Null;
                         max_seen = Value.Null;
                       });
            }
          in
          let stats = ref init in
          Attach_util.scan_relation ctx desc (fun _ record ->
              stats := apply_delta !stats (delta_of_record inst record 1));
          Buffer_pool.with_page_mut ctx.Ctx.bp page (fun frame ->
              encode_page frame.Buffer_pool.data ~stamp:Log_record.no_lsn
                !stats);
          Ok inst)

  let drop_instance _ctx = Slot.drop_instance

  let on_insert ctx desc ~slot _reckey record =
    Slot.each slot (fun no _name inst ->
        bump ctx desc no inst (delta_of_record inst record 1))

  let on_delete ctx desc ~slot _reckey record =
    Slot.each slot (fun no _name inst ->
        bump ctx desc no inst (delta_of_record inst record (-1)))

  let on_update ctx desc ~slot ~old_key:_ ~new_key:_ ~old_record ~new_record =
    Slot.each slot (fun no _name inst ->
        let remove = delta_of_record inst old_record (-1) in
        let add = delta_of_record inst new_record 1 in
        let* () = bump ctx desc no inst remove in
        bump ctx desc no inst add)

  let lookup _ctx _desc ~slot:_ ~instance:_ ~key:_ = []
  let scan _ctx _desc ~slot:_ ~instance:_ ?lo:_ ?hi:_ () = None
  let estimate _ctx _desc ~slot:_ ~eligible:_ = []

  (* [ctx.lsn] is the LSN the undo's Clr takes once this returns. *)
  let undo ctx ~rel_id ~data =
    let no, dl = dec_delta data in
    Option.iter
      (fun inst -> ignore (replay ctx inst (negate_delta dl)))
      (Slot.in_catalog ctx ~rel_id no)

  let redo ctx ~rel_id ~data =
    let no, dl = dec_delta data in
    match Slot.in_catalog ctx ~rel_id no with
    | Some inst when replay ctx inst dl -> Ctx.applied ctx
    | Some _ | None -> ()
end

include Impl

let get ctx desc ~name =
  Option.map
    (fun (_, inst) -> read_stats ctx inst.page)
    (Slot.by_name desc name)

let register () = Slot.register ~redo:Impl.redo (module Impl : Intf.ATTACHMENT)
