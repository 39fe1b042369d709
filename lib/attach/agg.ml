open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Log_record = Dmx_wal.Log_record
module Btree = Dmx_btree.Btree

type inst = { group_fields : int array; sum_field : int; root : int }

module Slot = Attach_util.Slot (struct
  let name = "agg"

  type t = inst

  let enc e i =
    Codec.Enc.list e (fun e f -> Codec.Enc.varint e f)
      (Array.to_list i.group_fields);
    Codec.Enc.varint e i.sum_field;
    Codec.Enc.varint e i.root

  let dec d =
    let group_fields = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
    let sum_field = Codec.Dec.varint d in
    let root = Codec.Dec.varint d in
    { group_fields; sum_field; root }
end)

let id = Slot.id

type group = {
  group_values : Value.t array;
  count : int;
  sum : int64;
}

let enc_cell count sum =
  let e = Codec.Enc.create () in
  Codec.Enc.varint e count;
  Codec.Enc.int64 e sum;
  Codec.Enc.to_string e

let dec_cell s =
  let d = Codec.Dec.of_string s in
  let count = Codec.Dec.varint d in
  let sum = Codec.Dec.int64 d in
  (count, sum)

let tree ctx inst = Btree.open_tree ctx.Ctx.bp ~root:inst.root

let sum_of inst record =
  match record.(inst.sum_field) with
  | Value.Int i -> i
  | Value.Null -> 0L
  | v -> Int64.of_float (Option.value ~default:0. (Value.to_float v))

let cell_of ctx inst group_vals =
  match Btree.find (tree ctx inst) ~key:group_vals with
  | Some cell -> dec_cell cell
  | None -> (0, 0L)

let put_cell ctx inst group_vals count sum =
  let t = tree ctx inst in
  if count <= 0 then ignore (Btree.delete t ~key:group_vals)
  else ignore (Btree.replace t ~key:group_vals ~payload:(enc_cell count sum))

(* apply a (dcount, dsum) delta to one group; groups vanish at count 0 *)
let apply_delta ctx inst group_vals dcount dsum =
  let count, sum = cell_of ctx inst group_vals in
  put_cell ctx inst group_vals (count + dcount) (Int64.add sum dsum)

(* ---- log payloads ----

   Each record carries the delta plus the group's pre-image cell. Undo cannot
   blindly negate the delta: after a crash the forward change may never have
   reached the durable tree (no-redo recovery), and reversing an unapplied
   delta corrupts the aggregate. The pre-image lets undo verify that the
   post-image is actually present before restoring — the same
   state-checking discipline as the index undos. *)

let enc_op no group_vals dcount dsum ~old_count ~old_sum =
  let e = Codec.Enc.create () in
  Codec.Enc.varint e no;
  Codec.Enc.record e group_vals;
  Codec.Enc.varint e (dcount + 1);  (* deltas are -1/0/+1; shift unsigned *)
  Codec.Enc.int64 e dsum;
  Codec.Enc.varint e old_count;
  Codec.Enc.int64 e old_sum;
  Codec.Enc.to_string e

let dec_op s =
  let d = Codec.Dec.of_string s in
  let no = Codec.Dec.varint d in
  let group_vals = Codec.Dec.record d in
  let dcount = Codec.Dec.varint d - 1 in
  let dsum = Codec.Dec.int64 d in
  let old_count = Codec.Dec.varint d in
  let old_sum = Codec.Dec.int64 d in
  (no, group_vals, dcount, dsum, old_count, old_sum)

let bump ctx (desc : Descriptor.t) no inst record sign =
  let group_vals = Record.project record inst.group_fields in
  let dsum =
    if sign > 0 then sum_of inst record else Int64.neg (sum_of inst record)
  in
  let old_count, old_sum = cell_of ctx inst group_vals in
  apply_delta ctx inst group_vals sign dsum;
  ignore
    (Ctx.log ctx
       ~source:(Log_record.Attachment (id ()))
       ~rel_id:desc.rel_id
       ~data:(enc_op no group_vals sign dsum ~old_count ~old_sum));
  Ok ()

let ( let* ) = Result.bind

module Impl = struct
  let name = "agg"

  let attr_specs =
    [
      Attrlist.spec ~required:true "group" Attrlist.A_string;
      Attrlist.spec ~required:true "sum" Attrlist.A_string;
    ]

  let create_instance ctx (desc : Descriptor.t) ~instance_name attrs =
    match Attrlist.validate attr_specs attrs with
    | Error e -> Error (Error.Ddl_error e)
    | Ok () ->
      Slot.add desc ~instance_name ~what:"aggregate" (fun () ->
          let group =
            Attach_util.parse_fields desc.schema
              (Option.get (Attrlist.find attrs "group"))
          in
          let sum =
            Attach_util.parse_fields desc.schema
              (Option.get (Attrlist.find attrs "sum"))
          in
          match group, sum with
          | Error e, _ | _, Error e -> Error (Error.Ddl_error e)
          | _, Ok s when Array.length s <> 1 ->
            Error (Error.Ddl_error "sum must name exactly one column")
          | Ok group_fields, Ok s ->
            let btree = Btree.create ctx.Ctx.bp in
            let inst =
              { group_fields; sum_field = s.(0); root = Btree.root btree }
            in
            Attach_util.scan_relation ctx desc (fun _ record ->
                apply_delta ctx inst
                  (Record.project record inst.group_fields)
                  1 (sum_of inst record));
            Ok inst)

  let drop_instance _ctx desc ~instance_name =
    Result.map snd (Slot.drop desc ~instance_name)

  let on_insert ctx desc ~slot _key record =
    Slot.each slot (fun no _name inst -> bump ctx desc no inst record 1)

  let on_delete ctx desc ~slot _key record =
    Slot.each slot (fun no _name inst -> bump ctx desc no inst record (-1))

  let on_update ctx desc ~slot ~old_key:_ ~new_key:_ ~old_record ~new_record =
    Slot.each slot (fun no _name inst ->
        if
          Record.compare_on inst.group_fields old_record new_record = 0
          && sum_of inst old_record = sum_of inst new_record
        then Ok ()
        else begin
          let* () = bump ctx desc no inst old_record (-1) in
          bump ctx desc no inst new_record 1
        end)

  (* direct-by-key access: group key -> nothing (the aggregation is read
     through the module interface, not as record keys) *)
  let lookup _ctx _desc ~slot:_ ~instance:_ ~key:_ = []
  let scan _ctx _desc ~slot:_ ~instance:_ ?lo:_ ?hi:_ () = None
  let estimate _ctx _desc ~slot:_ ~eligible:_ = []

  let undo ctx ~rel_id ~data =
    let no, group_vals, dcount, dsum, old_count, old_sum = dec_op data in
    match Slot.in_catalog ctx ~rel_id no with
    | Some inst when Dmx_page.Buffer_pool.page_live ctx.Ctx.bp inst.root ->
      (* Restore the pre-image only when the post-image is present; an
         absent post-image means the forward delta never became durable (or
         was already undone) and there is nothing to reverse. *)
      let cur_count, cur_sum = cell_of ctx inst group_vals in
      if
        cur_count = old_count + dcount
        && Int64.equal cur_sum (Int64.add old_sum dsum)
      then put_cell ctx inst group_vals old_count old_sum
    | Some _ | None -> () (* tree lost with the crash: nothing durable *)
end

include Impl

let with_inst (desc : Descriptor.t) ~name f =
  Option.map (fun (_, inst) -> f inst) (Slot.by_name desc name)

let groups ctx desc ~name =
  match
    with_inst desc ~name (fun inst ->
        let acc = ref [] in
        Btree.iter (tree ctx inst) (fun key cell ->
            let count, sum = dec_cell cell in
            acc := { group_values = key; count; sum } :: !acc);
        List.rev !acc)
  with
  | Some gs -> gs
  | None -> []

let group ctx desc ~name ~key =
  Option.join
    (with_inst desc ~name (fun inst ->
         Option.map
           (fun cell ->
             let count, sum = dec_cell cell in
             { group_values = key; count; sum })
           (Btree.find (tree ctx inst) ~key)))

let register () = Slot.register (module Impl : Intf.ATTACHMENT)
