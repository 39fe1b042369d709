open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist

let reg_id : int option ref = ref None [@@dmx.global "config-immutable-after-setup"]

let id () =
  match !reg_id with
  | Some id -> id
  | None -> Error.raise_err (Error.Internal "Temp: storage method not registered")

module Imap = Map.Make (Int)

type store = { mutable records : Record.t Imap.t; mutable next_seq : int }

let stores : (int, store) Hashtbl.t = Hashtbl.create 16 [@@dmx.global "UNSAFE"]

let store_of rel_id =
  match Hashtbl.find_opt stores rel_id with
  | Some s -> s
  | None ->
    let s = { records = Imap.empty; next_seq = 1 } in
    Hashtbl.replace stores rel_id s;
    s

let reset_all () = Hashtbl.reset stores

let seq_of = function
  | Record_key.Rid { page = 0; slot } -> Some slot
  | Record_key.Rid _ | Record_key.Fields _ -> None

let key_of_seq seq = Record_key.rid ~page:0 ~slot:seq

module Impl = struct
  let name = "temp"
  let attr_specs = []

  let create ctx ~rel_id _schema attrs =
    ignore ctx;
    match Attrlist.validate attr_specs attrs with
    | Error e -> Error (Error.Ddl_error e)
    | Ok () ->
      ignore (store_of rel_id);
      Ok ""

  let destroy ctx ~rel_id ~smethod_desc =
    ignore ctx;
    ignore smethod_desc;
    Hashtbl.remove stores rel_id

  let insert ctx (desc : Descriptor.t) record =
    ignore ctx;
    let s = store_of desc.rel_id in
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    s.records <- Imap.add seq record s.records;
    Ok (key_of_seq seq)

  let fetch ctx (desc : Descriptor.t) key ?fields () =
    ignore ctx;
    match seq_of key with
    | None -> None
    | Some seq ->
      Option.map
        (fun record ->
          match fields with
          | None -> record
          | Some fs -> Record.project record fs)
        (Imap.find_opt seq (store_of desc.rel_id).records)

  let delete ctx (desc : Descriptor.t) key =
    ignore ctx;
    let s = store_of desc.rel_id in
    match seq_of key with
    | None -> Error (Error.Key_not_found (Record_key.to_string key))
    | Some seq -> begin
      match Imap.find_opt seq s.records with
      | None -> Error (Error.Key_not_found (Record_key.to_string key))
      | Some record ->
        s.records <- Imap.remove seq s.records;
        Ok record
    end

  let update ctx (desc : Descriptor.t) key new_record =
    ignore ctx;
    let s = store_of desc.rel_id in
    match seq_of key with
    | None -> Error (Error.Key_not_found (Record_key.to_string key))
    | Some seq ->
      if Imap.mem seq s.records then begin
        s.records <- Imap.add seq new_record s.records;
        Ok key
      end
      else Error (Error.Key_not_found (Record_key.to_string key))

  let key_fields _ = None

  let record_count ctx (desc : Descriptor.t) =
    ignore ctx;
    Imap.cardinal (store_of desc.rel_id).records

  let scan ctx (desc : Descriptor.t) ?lo ?hi ?filter () =
    ignore ctx;
    ignore lo;
    ignore hi;
    let s = store_of desc.rel_id in
    let pos = ref 0 in
    let next () =
      match Imap.find_first_opt (fun seq -> seq > !pos) s.records with
      | None -> None
      | Some (seq, record) ->
        pos := seq;
        Some (key_of_seq seq, record)
    in
    Scan_help.filtered ?filter ~next
      ~close:(fun () -> ())
      ~capture:(fun () ->
        let saved = !pos in
        fun () -> pos := saved)
      ()

  let estimate_scan ctx (desc : Descriptor.t) ~eligible =
    let rows = float_of_int (record_count ctx desc) in
    let sel =
      List.fold_left
        (fun acc p -> acc *. Dmx_expr.Analyze.selectivity p)
        1.0 eligible
    in
    {
      Cost.cost = Cost.make ~io:0. ~cpu:rows;
      est_rows = rows *. sel;
      matched = eligible;
      residual = [];
      ordered_by = None;
    }

  let undo _ctx ~rel_id:_ ~data:_ =
    (* Temporary relations never log, so this is unreachable. *)
    failwith "Temp.undo: temporary relations are unlogged"

  (* Temporary relations never log and do not outlive a restart. *)
  let redo _ctx ~rel_id:_ ~data:_ = ()
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
