open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
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

(* Apply a (dcount, dsum) delta to one group in one descent; groups vanish
   at count 0. *)
let apply_delta t ~log group_vals dcount dsum =
  ignore
    (Btree.set t ~key:group_vals ~log (fun cell ->
         let count, sum =
           match cell with Some c -> dec_cell c | None -> (0, 0L)
         in
         let count = count + dcount in
         if count <= 0 then None
         else Some (enc_cell count (Int64.add sum dsum))))

let ( let* ) = Result.bind

(* Apply [(record, sign)] changes. A group cell is shared by every
   transaction writing the relation, and its change image undoes only while
   the logging transaction owns it: every cell the changes touch is X-locked
   until the transaction ends, before any is bumped. The lock is a record
   resource of the base relation whose key starts with tag 2, which no
   encoded record key (tags 0 and 1) does. *)
let bump ctx (desc : Descriptor.t) no inst changes =
  let cell (record, _) = Record.project record inst.group_fields in
  let* () =
    List.fold_left
      (fun locked change ->
        let* () = locked in
        let e = Codec.Enc.create () in
        Codec.Enc.byte e 2;
        Codec.Enc.varint e no;
        Codec.Enc.record e (cell change);
        Ctx.lock ctx ~mode:Dmx_lock.Lock_mode.X
          (Dmx_lock.Lock_table.Record (desc.rel_id, Codec.Enc.to_string e)))
      (Ok ()) changes
  in
  List.iter
    (fun ((record, sign) as change) ->
      let sum = sum_of inst record in
      apply_delta (tree ctx inst) ~log:(Slot.log ctx desc) (cell change) sign
        (if sign > 0 then sum else Int64.neg sum))
    changes;
  Ok ()

module Impl = struct
  let name = "agg"

  let attr_specs =
    [
      Attrlist.spec ~required:true "group" Attrlist.A_string;
      Attrlist.spec ~required:true "sum" Attrlist.A_string;
    ]

  let create_instance ctx (desc : Descriptor.t) ~instance_name attrs =
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
          (* one (count, sum) cell per group, built in group order *)
          let rows = ref [] in
          Attach_util.scan_relation ctx desc (fun _ record ->
              rows :=
                (Record.project record inst.group_fields, sum_of inst record)
                :: !rows);
          let rows = Array.of_list !rows in
          Array.sort (fun (a, _) (b, _) -> Btree.compare_full a b) rows;
          let cells =
            Array.fold_left
              (fun cells (group, sum) ->
                match cells with
                | (g, count, total) :: rest
                  when Btree.compare_full g group = 0 ->
                  (g, count + 1, Int64.add total sum) :: rest
                | _ -> (group, 1, sum) :: cells)
              [] rows
          in
          Btree.build btree
            (Array.of_list
               (List.rev_map
                  (fun (group, count, sum) -> (group, enc_cell count sum))
                  cells));
          Ok inst)

  let drop_instance _ctx = Slot.drop_instance

  let on_insert ctx desc ~slot _key record =
    Slot.each slot (fun no _name inst -> bump ctx desc no inst [ (record, 1) ])

  let on_delete ctx desc ~slot _key record =
    Slot.each slot (fun no _name inst ->
        bump ctx desc no inst [ (record, -1) ])

  let on_update ctx desc ~slot ~old_key:_ ~new_key:_ ~old_record ~new_record =
    Slot.each slot (fun no _name inst ->
        if
          Record.compare_on inst.group_fields old_record new_record = 0
          && sum_of inst old_record = sum_of inst new_record
        then Ok ()
        else bump ctx desc no inst [ (old_record, -1); (new_record, 1) ])

  (* direct-by-key access: group key -> nothing (the aggregation is read
     through the module interface, not as record keys) *)
  let lookup _ctx _desc ~slot:_ ~instance:_ ~key:_ = []
  let scan _ctx _desc ~slot:_ ~instance:_ ?lo:_ ?hi:_ () = None
  let estimate _ctx _desc ~slot:_ ~eligible:_ = []

  let undo ctx ~rel_id:_ ~data = ignore (Btree.undo ctx.Ctx.bp data)

  let redo ctx ~rel_id:_ ~data =
    if Btree.redo ctx.Ctx.bp data then Ctx.applied ctx
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

let register () = Slot.register ~redo:Impl.redo (module Impl : Intf.ATTACHMENT)
