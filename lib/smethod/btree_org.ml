open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog
module Btree = Dmx_btree.Btree

include Registry.Smethod (struct
  let name = "btree"
end)

(* ---- descriptor ---- *)

(* Fixed at creation. The advisory record count lives with the tree
   ({!Btree.advisory_count}). *)
type bdesc = { root : int; key_fields : int array }

let enc_desc d =
  let e = Codec.Enc.create () in
  Codec.Enc.varint e d.root;
  Codec.Enc.list e (fun e f -> Codec.Enc.varint e f) (Array.to_list d.key_fields);
  Codec.Enc.to_string e

let dec_desc s =
  let d = Codec.Dec.of_string s in
  let root = Codec.Dec.varint d in
  let key_fields = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
  { root; key_fields }

let bdesc_of (desc : Descriptor.t) = dec_desc desc.smethod_desc

let tree_of ctx bd = Btree.open_tree ctx.Ctx.bp ~root:bd.root

let key_of bd record = Record.project record bd.key_fields

let duplicate key =
  Error
    (Error.Duplicate_key (Fmt.str "%a" Fmt.(array ~sep:(any ",") Value.pp) key))

let same_key a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Value.compare x y = 0) a b

let payload_of record = Bytes.to_string (Codec.encode_record record)
let record_of payload = Codec.Dec.record (Codec.Dec.of_string payload)

module Impl = struct
  let name = "btree"

  let attr_specs = [ Attrlist.spec ~required:true "key" Attrlist.A_string ]

  let parse_key_fields schema spec =
    let names = String.split_on_char ',' spec |> List.map String.trim in
    let rec loop acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | n :: rest -> begin
        match Schema.field_index schema n with
        | Some i ->
          if List.mem i acc then Error (Fmt.str "duplicate key field %S" n)
          else loop (i :: acc) rest
        | None -> Error (Fmt.str "unknown key field %S" n)
      end
    in
    if names = [] || names = [ "" ] then Error "empty key specification"
    else loop [] names

  let create ctx ~rel_id schema attrs =
    ignore rel_id;
    match parse_key_fields schema (Option.get (Attrlist.find attrs "key")) with
    | Error e -> Error (Error.Ddl_error e)
    | Ok key_fields ->
      (* Key fields must be NOT NULL to give every record a total key. *)
      let nullable =
        Array.to_list key_fields
        |> List.filter (fun i -> (Schema.col schema i).Schema.nullable)
      in
      if nullable <> [] then
        Error
          (Error.Ddl_error
             (Fmt.str "key field %S must be declared NOT NULL"
                (Schema.field_name schema (List.hd nullable))))
      else begin
        let tree = Btree.create ctx.Ctx.bp in
        Ok (enc_desc { root = Btree.root tree; key_fields })
      end

  let destroy ctx ~rel_id ~smethod_desc =
    ignore ctx;
    ignore rel_id;
    ignore smethod_desc

  (* Insert, one record or many (registered as the batch vector entry;
     [insert] is a batch of one): the records enter the tree in key order,
     each leaf decoded and written once per run ({!Btree.insert_batch}); a
     key already stored or repeated in the batch refuses it. The count
     moves once, by the entries applied, so the rollback of a refused batch
     brings it back. *)
  let insert_batch ctx (desc : Descriptor.t) records =
    let bd = bdesc_of desc in
    let entries = Array.map (fun r -> (key_of bd r, payload_of r)) records in
    let keys = Array.map (fun (k, _) -> Record_key.fields k) entries in
    Array.sort (fun (a, _) (b, _) -> Btree.compare_full a b) entries;
    let tree = tree_of ctx bd in
    let stored applied =
      if applied > 0 then Btree.add_advisory_count tree applied
    in
    match
      Btree.insert_batch
        ~unique_prefix:(Array.length bd.key_fields)
        tree
        ~log:(List.iter (log ctx ~rel_id:desc.rel_id))
        entries
    with
    | Ok () ->
      stored (Array.length entries);
      Ok keys
    | Error j ->
      stored j;
      duplicate (fst entries.(j))

  let insert ctx desc record =
    Result.map (fun keys -> keys.(0)) (insert_batch ctx desc [| record |])

  let fields_key = function
    | Record_key.Fields k -> Some k
    | Record_key.Rid _ -> None

  let fetch ctx (desc : Descriptor.t) key ?fields () =
    let bd = bdesc_of desc in
    match fields_key key with
    | None -> None
    | Some k -> begin
      match Btree.find (tree_of ctx bd) ~key:k with
      | None -> None
      | Some payload ->
        let record = record_of payload in
        Some
          (match fields with
          | None -> record
          | Some fs -> Record.project record fs)
    end

  let delete ctx (desc : Descriptor.t) key =
    let tree = tree_of ctx (bdesc_of desc) in
    let removed =
      Option.bind (fields_key key) (fun k ->
          Btree.set tree ~key:k ~log:(log ctx ~rel_id:desc.rel_id) (fun _ ->
              None))
    in
    match removed with
    | None -> Error (Error.Key_not_found (Record_key.to_string key))
    | Some payload ->
      Btree.add_advisory_count tree (-1);
      Ok (record_of payload)

  let update ctx (desc : Descriptor.t) key new_record =
    let bd = bdesc_of desc in
    let tree = tree_of ctx bd in
    let log = log ctx ~rel_id:desc.rel_id in
    let payload = payload_of new_record in
    let new_key = key_of bd new_record in
    let updated = Ok (Record_key.fields new_key) in
    let not_found = Error (Error.Key_not_found (Record_key.to_string key)) in
    match fields_key key with
    | None -> not_found
    | Some k when same_key k new_key -> (
      (* Key unchanged: replace payload in place. *)
      match Btree.set tree ~key:k ~log (Option.map (fun _ -> payload)) with
      | None -> not_found
      | Some _ -> updated)
    | Some k -> (
      (* Key fields modified: the record moves and its key changes. *)
      if Btree.find tree ~key:k = None then not_found
      else
        match Btree.set tree ~key:new_key ~log (Btree.if_absent payload) with
        | Some _ -> duplicate new_key
        | None ->
          ignore (Btree.set tree ~key:k ~log (fun _ -> None));
          updated)

  let key_fields desc = Some (bdesc_of desc).key_fields

  let record_count ctx desc = Btree.advisory_count (tree_of ctx (bdesc_of desc))

  (* The one scan implementation (registered as the batch vector entry; the
     record cursor [scan] adapts it): one run per leaf via [Btree.next_run].
     Positions are captured between runs (the cursor is on the run's last
     key), so savepoint restore re-enters exactly after it. *)
  let scan_batch ctx (desc : Descriptor.t) ~lo ~hi ~filter =
    let bd = bdesc_of desc in
    let cursor = Btree.cursor ~lo ~hi (tree_of ctx bd) in
    let next_run () =
      Option.map
        (Array.map (fun (key, payload) ->
             (Record_key.fields key, record_of payload)))
        (Btree.next_run cursor)
    in
    Scan_help.filtered_batch ?filter ~next_run
      ~close:(fun () -> ())
      ~capture:(fun () ->
        let saved = Btree.position cursor in
        fun () -> Btree.seek cursor saved)
      ()

  let scan ctx desc ?(lo = Intf.Unbounded) ?(hi = Intf.Unbounded) ?filter () =
    Scan_help.records_of_runs ctx (scan_batch ctx desc ~lo ~hi ~filter)

  let estimate_scan ctx (desc : Descriptor.t) ~eligible =
    let bd = bdesc_of desc in
    let tree = tree_of ctx bd in
    let rows = float_of_int (Btree.advisory_count tree) in
    let height = float_of_int (Btree.height tree) in
    let pred = Dmx_expr.Analyze.conjoin eligible in
    let m =
      match pred with
      | None ->
        {
          Dmx_expr.Analyze.eq_prefix = 0;
          range_on_next = [];
          matched = [];
          residual = [];
        }
      | Some p -> Dmx_expr.Analyze.match_key ~key_fields:bd.key_fields p
    in
    let key_sel =
      if m.eq_prefix > 0 then 0.05 ** float_of_int m.eq_prefix
      else if m.range_on_next <> [] then 0.3
      else 1.0
    in
    let scanned = Float.max 1. (rows *. key_sel) in
    let leaf_pages = Float.max 1. (scanned /. 32.) in
    let residual_sel =
      List.fold_left
        (fun acc p -> acc *. Dmx_expr.Analyze.selectivity p)
        1.0 m.residual
    in
    let io =
      if m.eq_prefix > 0 || m.range_on_next <> [] then height +. leaf_pages
      else Float.max 1. (rows /. 32.)
    in
    {
      Cost.cost = Cost.make ~io ~cpu:(scanned *. 2.);
      est_rows = scanned *. residual_sel;
      matched = eligible;  (* residual conjuncts are filtered in the scan *)
      residual = [];
      ordered_by = Some bd.key_fields;
    }

  (* ---- undo ---- *)

  (* The advisory count follows an insert or delete that undo actually
     reversed, except when restart repeats a Clr. *)
  let undo ctx ~rel_id ~data =
    match Btree.undo ctx.Ctx.bp data with
    | None -> ()
    | Some c -> (
      let delta = Image.count_delta c in
      match Catalog.find_by_id ctx.Ctx.catalog rel_id with
      | Some desc
        when delta <> 0 && (not ctx.Ctx.replay)
             && (bdesc_of desc).root = fst c.target ->
        Btree.add_advisory_count (tree_of ctx (bdesc_of desc)) delta
      | Some _ | None -> ())

  (* The count is advisory: redo leaves it alone. *)
  let redo ctx ~rel_id:_ ~data =
    if Btree.redo ctx.Ctx.bp data then Ctx.applied ctx
end

include Impl

let register () =
  register ~insert_batch ~scan_batch ~redo:Impl.redo
    (module Impl : Intf.STORAGE_METHOD)
