open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Btree = Dmx_btree.Btree

(* ---- instance payloads ---- *)

type inst = { fields : int array; unique : bool; root : int }

module Slot = Attach_util.Slot (struct
  let name = "btree_index"

  type t = inst

  let enc e i =
    Codec.Enc.list e (fun e f -> Codec.Enc.varint e f) (Array.to_list i.fields);
    Codec.Enc.bool e i.unique;
    Codec.Enc.varint e i.root

  let dec d =
    let fields = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
    let unique = Codec.Dec.bool d in
    let root = Codec.Dec.varint d in
    { fields; unique; root }
end)

let id = Slot.id
let instance_names desc =
  List.map (fun (_, name, _) -> name) (Slot.of_desc desc)

let instance_number desc ~name = Option.map fst (Slot.by_name desc name)

(* Index entry: btree key = indexed field values + record key discriminator;
   the payload is empty, since the key's last value already holds the
   record key. *)
let entry_key inst record reckey =
  Array.append
    (Record.project record inst.fields)
    [| Attach_util.encode_reckey_value reckey |]

let tree ctx inst = Btree.open_tree ctx.Ctx.bp ~root:inst.root

(* ---- entry maintenance ---- *)

let entry_of inst (reckey, record) = (entry_key inst record reckey, "")

(* The record key an entry's key ends with. *)
let reckey_of key = Attach_util.decode_reckey_value key.(Array.length key - 1)

(* Entries in the tree's key order: indexed fields, then the record key. *)
let sorted entries =
  Array.sort (fun (k1, _) (k2, _) -> Btree.compare_full k1 k2) entries;
  entries

let field_values inst (key, _) = Array.sub key 0 (Array.length inst.fields)

let pp_values = Fmt.(array ~sep:(any ",") Value.pp)

(* The first sorted entry whose indexed fields repeat its predecessor's. *)
let first_duplicate inst entries =
  let same i =
    Btree.compare_full
      (field_values inst entries.(i - 1))
      (field_values inst entries.(i))
    = 0
  in
  let rec scan i =
    if i >= Array.length entries then None
    else if same i then Some i
    else scan (i + 1)
  in
  scan 1

(* Add the entries of [(reckey, record)] pairs in the tree's key order
   through {!Btree.insert_batch}: each leaf is decoded and written once per
   run, and a unique index's duplicate is found beside the merged entries
   in the same pass. An identical entry already present is left alone,
   unlogged. Each leaf run is logged before its leaf is written. *)
let insert_entries ctx desc name inst pairs =
  let keyed = sorted (Array.map (entry_of inst) pairs) in
  let unique_prefix =
    if inst.unique then Some (Array.length inst.fields) else None
  in
  Result.map_error
    (fun j ->
      Error.veto
        ~attachment:(Fmt.str "unique index %S" name)
        (Fmt.str "duplicate key (%a)" pp_values (field_values inst keyed.(j))))
    (Btree.insert_batch ?unique_prefix (tree ctx inst)
       ~log:(List.iter (Slot.log ctx desc))
       keyed)

let remove_entry ctx desc inst record reckey =
  ignore
    (Btree.set (tree ctx inst)
       ~key:(entry_key inst record reckey)
       ~log:(Slot.log ctx desc)
       (fun _ -> None));
  Ok ()

let ( let* ) = Result.bind

module Impl = struct
  let name = "btree_index"

  let attr_specs =
    [
      Attrlist.spec ~required:true "fields" Attrlist.A_string;
      Attrlist.spec "unique" Attrlist.A_bool;
    ]

  let create_instance ctx (desc : Descriptor.t) ~instance_name attrs =
    Slot.add desc ~instance_name ~what:"index" (fun () ->
        match
          Attach_util.parse_fields desc.schema
            (Option.get (Attrlist.find attrs "fields"))
        with
        | Error e -> Error (Error.Ddl_error e)
        | Ok fields -> (
          let unique =
            match Attrlist.get_bool attrs "unique" with
            | Ok (Some b) -> b
            | Ok None | Error _ -> false
          in
          let btree = Btree.create ctx.Ctx.bp in
          let inst = { fields; unique; root = Btree.root btree } in
          (* Build the index from the relation's current contents: sorted,
             a unique index's duplicates are neighbours. *)
          let entries = ref [] in
          Attach_util.scan_relation ctx desc (fun reckey record ->
              entries := entry_of inst (reckey, record) :: !entries);
          let entries = sorted (Array.of_list !entries) in
          match if unique then first_duplicate inst entries else None with
          | Some j ->
            Error
              (Error.Constraint_violation
                 (Fmt.str "existing records duplicate key (%a)" pp_values
                    (field_values inst entries.(j))))
          | None ->
            Btree.build btree entries;
            Ok inst))

  (* Page storage is abandoned (no deallocator); nothing to defer. *)
  let drop_instance _ctx = Slot.drop_instance

  (* Batch vector entry ([on_insert] is a batch of one). *)
  let on_insert_batch ctx (desc : Descriptor.t) ~slot entries =
    Slot.each slot (fun _no name inst ->
        insert_entries ctx desc name inst entries)

  let on_insert ctx desc ~slot reckey record =
    on_insert_batch ctx desc ~slot [| (reckey, record) |]

  let on_delete ctx (desc : Descriptor.t) ~slot reckey record =
    Slot.each slot (fun _no _name inst ->
        remove_entry ctx desc inst record reckey)

  let on_update ctx (desc : Descriptor.t) ~slot ~old_key ~new_key ~old_record
      ~new_record =
    Slot.each slot (fun _no name inst ->
        (* Detect when no indexed field was modified (paper: "the B-tree
           update operation should be able to detect when no indexed fields
           for a given index are modified"). *)
        let fields_unchanged =
          Record.compare_on inst.fields old_record new_record = 0
        in
        if fields_unchanged && Record_key.equal old_key new_key then Ok ()
        else begin
          let* () = remove_entry ctx desc inst old_record old_key in
          insert_entries ctx desc name inst [| (new_key, new_record) |]
        end)

  let lookup ctx (desc : Descriptor.t) ~slot ~instance ~key =
    ignore desc;
    match Slot.by_no slot instance with
    | None -> []
    | Some inst ->
      let c =
        Btree.cursor ~lo:(Btree.Incl key) ~hi:(Btree.Incl key) (tree ctx inst)
      in
      (* a unique index holds at most one entry per full field key *)
      let single = inst.unique && Array.length key = Array.length inst.fields in
      let rec loop acc =
        match Btree.next c with
        | None -> List.rev acc
        | Some (key, _) ->
          let acc = reckey_of key :: acc in
          if single then acc else loop acc
      in
      loop []

  let scan ctx (desc : Descriptor.t) ~slot ~instance ?(lo = Intf.Unbounded)
      ?(hi = Intf.Unbounded) () =
    ignore desc;
    match Slot.by_no slot instance with
    | None -> None
    | Some inst ->
      let c = Btree.cursor ~lo ~hi (tree ctx inst) in
      Some
        (Scan_help.key_scan_of
           ~next:(fun () ->
             match Btree.next c with
             | None -> None
             | Some (key, _) -> Some (reckey_of key))
           ~close:(fun () -> ())
           ~capture:(fun () ->
             let saved = Btree.position c in
             fun () -> Btree.seek c saved)
           ())

  (* "Index dip": when the predicate's bounds are constants, probe the tree
     for the actual qualifying-entry count (capped) instead of guessing —
     the access path itself is the best judge of its relevance. *)
  let dip_cap = 2048

  let probe_count ctx inst p =
    match Dmx_expr.Analyze.key_bounds ~key_fields:inst.fields (Some p) with
    | Unbounded, Unbounded -> None
    | lo, hi ->
      let c = Btree.cursor ~lo ~hi (tree ctx inst) in
      let rec count n =
        if n >= dip_cap then n
        else match Btree.next c with None -> n | Some _ -> count (n + 1)
      in
      let n = count 0 in
      (* A capped dip saw only a prefix of the range: fall back to the
         heuristic estimate rather than under-reporting. *)
      if n >= dip_cap then None else Some n

  let estimate ctx (desc : Descriptor.t) ~slot ~eligible =
    ignore desc;
    let pred = Dmx_expr.Analyze.conjoin eligible in
    List.filter_map
      (fun (no, _name, inst) ->
        match pred with
        | None -> None
        | Some p ->
          let m = Dmx_expr.Analyze.match_key ~key_fields:inst.fields p in
          if m.eq_prefix = 0 && m.range_on_next = [] then None
          else begin
            let t = tree ctx inst in
            let height = float_of_int (Btree.height t) in
            let rows = float_of_int (max 1 (Btree.count t)) in
            let key_sel =
              (0.05 ** float_of_int m.eq_prefix)
              *. (if m.range_on_next <> [] then 0.3 else 1.0)
            in
            let qualifying =
              match probe_count ctx inst p with
              | Some n -> float_of_int (max 1 n)
              | None ->
                if inst.unique && m.eq_prefix = Array.length inst.fields then 1.
                else Float.max 1. (rows *. key_sel)
            in
            Some
              {
                Intf.ac_instance = no;
                ac_key_fields = Some inst.fields;
                ac_spatial_rect = None;
                ac_estimate =
                  {
                    Cost.cost =
                      Cost.make
                        ~io:(height +. (qualifying /. 32.))
                        ~cpu:qualifying;
                    est_rows = qualifying;
                    matched = m.matched;
                    residual = m.residual;
                    ordered_by = Some inst.fields;
                  };
              }
          end)
      (Slot.decode slot)

  let undo ctx ~rel_id:_ ~data = ignore (Btree.undo ctx.Ctx.bp data)

  let redo ctx ~rel_id:_ ~data =
    if Btree.redo ctx.Ctx.bp data then Ctx.applied ctx
end

include Impl

let register () =
  Slot.register ~insert_batch:Impl.on_insert_batch ~redo:Impl.redo
    (module Impl : Intf.ATTACHMENT)
