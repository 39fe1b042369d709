open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog
module Btree = Dmx_btree.Btree
module Expr = Dmx_expr.Expr

(* [mine_root] is keyed (my key, other key); [theirs_root] the reverse.
   The two instances of one join index share the same physical trees with
   the roots swapped. *)
type inst = {
  my_field : int;
  other_rel : int;
  other_field : int;
  mine_root : int;
  theirs_root : int;
}

module Slot = Attach_util.Slot (struct
  let name = "join_index"

  type t = inst

  let enc e i =
    Codec.Enc.varint e i.my_field;
    Codec.Enc.varint e i.other_rel;
    Codec.Enc.varint e i.other_field;
    Codec.Enc.varint e i.mine_root;
    Codec.Enc.varint e i.theirs_root

  let dec d =
    let my_field = Codec.Dec.varint d in
    let other_rel = Codec.Dec.varint d in
    let other_field = Codec.Dec.varint d in
    let mine_root = Codec.Dec.varint d in
    let theirs_root = Codec.Dec.varint d in
    { my_field; other_rel; other_field; mine_root; theirs_root }
end)

let id = Slot.id

let kv = Attach_util.encode_reckey_value
let pair_key a b = [| kv a; kv b |]

(* Add ([Some ""]) or remove ([None]) one pair in both trees, each a change
   logged through [log]. *)
let set_pair ctx ~log inst my_key other_key entry =
  let set root key =
    ignore
      (Btree.set (Btree.open_tree ctx.Ctx.bp ~root) ~key ~log (fun _ -> entry))
  in
  set inst.mine_root (pair_key my_key other_key);
  set inst.theirs_root (pair_key other_key my_key)

let partners_of ctx inst my_key =
  let mine = Btree.open_tree ctx.Ctx.bp ~root:inst.mine_root in
  let c =
    Btree.cursor ~lo:(Btree.Incl [| kv my_key |]) ~hi:(Btree.Incl [| kv my_key |])
      mine
  in
  let rec loop acc =
    match Btree.next c with
    | None -> List.rev acc
    | Some (key, _) ->
      loop (Attach_util.decode_reckey_value key.(1) :: acc)
  in
  loop []

(* Matching records on the other side, found through its storage method. *)
let other_matches ctx inst value =
  if value = Value.Null then []
  else
    match Catalog.find_by_id ctx.Ctx.catalog inst.other_rel with
    | None -> []
    | Some other_desc ->
      let filter = Expr.Cmp (Eq, Expr.Field inst.other_field, Expr.Const value) in
      let (module M : Intf.STORAGE_METHOD) =
        Registry.storage_method other_desc.smethod_id
      in
      Scan_help.record_scan_to_list (M.scan ctx other_desc ~filter ())

let ( let* ) = Result.bind

let add_partners ctx desc inst my_key my_record =
  List.iter
    (fun (other_key, _) ->
      set_pair ctx ~log:(Slot.log ctx desc) inst my_key other_key (Some ""))
    (other_matches ctx inst my_record.(inst.my_field));
  Ok ()

let remove_partners ctx desc inst my_key =
  List.iter
    (fun other_key ->
      set_pair ctx ~log:(Slot.log ctx desc) inst my_key other_key None)
    (partners_of ctx inst my_key);
  Ok ()

module Impl = struct
  let name = "join_index"

  let attr_specs =
    [
      Attrlist.spec ~required:true "field" Attrlist.A_string;
      Attrlist.spec ~required:true "other" Attrlist.A_string;
      Attrlist.spec ~required:true "other_field" Attrlist.A_string;
    ]

  let create_instance ctx (desc : Descriptor.t) ~instance_name attrs =
    let parse (desc : Descriptor.t) attr =
      Attach_util.parse_fields desc.schema
        (Option.get (Attrlist.find attrs attr))
    in
    Slot.add desc ~instance_name ~what:"join index" (fun () ->
        let other = Option.get (Attrlist.find attrs "other") in
        let* other_desc =
          Option.to_result ~none:(Error.No_such_relation other)
            (Catalog.find ctx.Ctx.catalog other)
        in
        let* my_field, other_field =
          match parse desc "field", parse other_desc "other_field" with
          | Error e, _ | _, Error e -> Error (Error.Ddl_error e)
          | Ok [| m |], Ok [| t |] -> Ok (m, t)
          | Ok [| _ |], Ok _ ->
            Error (Error.Ddl_error "other_field must name exactly one column")
          | Ok _, Ok _ ->
            Error (Error.Ddl_error "field must name exactly one column")
        in
        let rs = Btree.create ctx.Ctx.bp in
        let sr = Btree.create ctx.Ctx.bp in
        let inst =
          {
            my_field;
            other_rel = other_desc.rel_id;
            other_field;
            mine_root = Btree.root rs;
            theirs_root = Btree.root sr;
          }
        in
        (* Precompute the join: for each of my records, find partners;
           build each tree from its pairs in key order. *)
        let mine = ref [] and theirs = ref [] in
        Attach_util.scan_relation ctx desc (fun my_key my_record ->
            List.iter
              (fun (other_key, _) ->
                mine := (pair_key my_key other_key, "") :: !mine;
                theirs := (pair_key other_key my_key, "") :: !theirs)
              (other_matches ctx inst my_record.(my_field)));
        let build tree pairs =
          let pairs = Array.of_list pairs in
          Array.sort (fun (a, _) (b, _) -> Btree.compare_full a b) pairs;
          Btree.build tree pairs
        in
        build rs !mine;
        build sr !theirs;
        (* Install the mirror instance on the other relation. *)
        Slot.set_on ctx other_desc
          (Slot.append instance_name
             {
               my_field = other_field;
               other_rel = desc.rel_id;
               other_field = my_field;
               mine_root = Btree.root sr;
               theirs_root = Btree.root rs;
             });
        Ok inst)

  let drop_instance ctx desc ~instance_name =
    let* inst, slot = Slot.drop desc ~instance_name in
    Option.iter
      (fun other -> Slot.set_on ctx other (Slot.remove instance_name))
      (Catalog.find_by_id ctx.Ctx.catalog inst.other_rel);
    Ok slot

  let on_insert ctx desc ~slot reckey record =
    Slot.each slot (fun _no _name inst ->
        add_partners ctx desc inst reckey record)

  let on_delete ctx desc ~slot reckey _record =
    Slot.each slot (fun _no _name inst -> remove_partners ctx desc inst reckey)

  let on_update ctx desc ~slot ~old_key ~new_key ~old_record ~new_record =
    Slot.each slot (fun _no _name inst ->
        if
          Value.equal old_record.(inst.my_field) new_record.(inst.my_field)
          && Record_key.equal old_key new_key
        then Ok ()
        else
          let* () = remove_partners ctx desc inst old_key in
          add_partners ctx desc inst new_key new_record)

  let lookup ctx desc ~slot ~instance ~key =
    (* Input key: the encoded record key of one of my records (as produced by
       Attach_util.encode_reckey_value); result: partner keys. *)
    ignore desc;
    match Slot.by_no slot instance with
    | None -> []
    | Some inst -> begin
      match key with
      | [| Value.String s |] ->
        partners_of ctx inst (Record_key.decode (Bytes.of_string s))
      | _ -> []
    end

  let scan ctx desc ~slot ~instance ?lo ?hi () =
    (* Key-sequential access over the pair tree: returns partner record keys
       in (my key, other key) order. *)
    ignore desc;
    ignore lo;
    ignore hi;
    match Slot.by_no slot instance with
    | None -> None
    | Some inst ->
      let mine = Btree.open_tree ctx.Ctx.bp ~root:inst.mine_root in
      let c = Btree.cursor mine in
      Some
        (Scan_help.key_scan_of
           ~next:(fun () ->
             match Btree.next c with
             | None -> None
             | Some (key, _) -> Some (Attach_util.decode_reckey_value key.(1)))
           ~close:(fun () -> ())
           ~capture:(fun () ->
             let saved = Btree.position c in
             fun () -> Btree.seek c saved)
           ())

  let estimate _ctx _desc ~slot:_ ~eligible:_ = []

  let undo ctx ~rel_id:_ ~data = ignore (Btree.undo ctx.Ctx.bp data)

  let redo ctx ~rel_id:_ ~data =
    if Btree.redo ctx.Ctx.bp data then Ctx.applied ctx
end

include Impl

let pairs_of ctx inst =
  let acc = ref [] in
  Btree.iter (Btree.open_tree ctx.Ctx.bp ~root:inst.mine_root) (fun key _ ->
      acc :=
        ( Attach_util.decode_reckey_value key.(0),
          Attach_util.decode_reckey_value key.(1) )
        :: !acc);
  List.rev !acc

let by_name desc name = Option.map snd (Slot.by_name desc name)

let by_no (desc : Descriptor.t) instance =
  Option.bind (Descriptor.attachment_desc desc (id ())) (fun slot ->
      Slot.by_no slot instance)

let pairs ctx desc ~name =
  Option.fold ~none:[] ~some:(pairs_of ctx) (by_name desc name)

let find_instance desc ~my_field ~other_rel ~other_field =
  List.find_map
    (fun (no, _, inst) ->
      if
        inst.my_field = my_field && inst.other_rel = other_rel
        && inst.other_field = other_field
      then Some no
      else None)
    (Slot.of_desc desc)

let pairs_of_instance ctx desc ~instance =
  Option.fold ~none:[] ~some:(pairs_of ctx) (by_no desc instance)

let pair_count ctx desc ~instance =
  Option.fold ~none:0
    ~some:(fun inst ->
      Btree.count (Btree.open_tree ctx.Ctx.bp ~root:inst.mine_root))
    (by_no desc instance)

let register () = Slot.register ~redo:Impl.redo (module Impl : Intf.ATTACHMENT)
