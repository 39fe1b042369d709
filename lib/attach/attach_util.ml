open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Catalog = Dmx_catalog.Catalog

type 'a instances = (int * string * 'a) list

let same_name a b = String.lowercase_ascii a = String.lowercase_ascii b

module type PAYLOAD = sig
  val name : string

  type t

  val enc : Codec.Enc.t -> t -> unit
  val dec : Codec.Dec.t -> t
end

module Slot (P : PAYLOAD) = struct
  include Registry.Once (struct
    let kind = "attachment"
    let name = P.name
  end)

  let register ?insert_batch ~redo impl =
    register (fun () ->
        let id = Registry.register_attachment impl in
        Option.iter (Registry.set_at_insert_batch id) insert_batch;
        Registry.set_at_redo id redo;
        id)

  let encode insts =
    let e = Codec.Enc.create () in
    Codec.Enc.list e
      (fun e (no, name, payload) ->
        Codec.Enc.varint e no;
        Codec.Enc.string e name;
        P.enc e payload)
      insts;
    Codec.Enc.to_string e

  let decode slot =
    let d = Codec.Dec.of_string slot in
    Codec.Dec.list d (fun d ->
        let no = Codec.Dec.varint d in
        let name = Codec.Dec.string d in
        (no, name, P.dec d))

  let of_desc desc =
    match Descriptor.attachment_desc desc (id ()) with
    | None -> []
    | Some slot -> decode slot

  let each slot f =
    let rec loop = function
      | [] -> Ok ()
      | (no, name, p) :: rest -> (
        match f no name p with Ok () -> loop rest | Error _ as e -> e)
    in
    loop (decode slot)

  let by_no slot no =
    List.find_map (fun (n, _, p) -> if n = no then Some p else None)
      (decode slot)

  let find insts name =
    List.find_map
      (fun (no, n, p) -> if same_name n name then Some (no, p) else None)
      insts

  let by_name desc name = find (of_desc desc) name

  let log ctx (desc : Descriptor.t) data =
    ignore
      (Ctx.log ctx ~source:(Dmx_wal.Log_record.Attachment (id ()))
         ~rel_id:desc.rel_id ~data)

  let in_catalog ctx ~rel_id no =
    Option.bind (Catalog.find_by_id ctx.Ctx.catalog rel_id) (fun desc ->
        Option.bind (Descriptor.attachment_desc desc (id ())) (fun slot ->
            by_no slot no))

  let append name p insts =
    let no = 1 + List.fold_left (fun m (no, _, _) -> max m no) 0 insts in
    insts @ [ (no, name, p) ]

  let remove name insts =
    List.filter (fun (_, n, _) -> not (same_name n name)) insts

  let add desc ~instance_name ~what build =
    if by_name desc instance_name <> None then
      Error
        (Error.Ddl_error (Fmt.str "%s %S already exists" what instance_name))
    else
      Result.map
        (fun p -> encode (append instance_name p (of_desc desc)))
        (build ())

  let drop desc ~instance_name =
    let insts = of_desc desc in
    match find insts instance_name with
    | None -> Error (Error.No_such_attachment instance_name)
    | Some (_, p) -> (
      match remove instance_name insts with
      | [] -> Ok (p, None)
      | rest -> Ok (p, Some (encode rest)))

  let drop_instance desc ~instance_name =
    Result.map snd (drop desc ~instance_name)

  let set_on ctx (desc : Descriptor.t) f =
    let old_desc = Descriptor.attachment_desc desc (id ()) in
    let new_desc =
      match f (of_desc desc) with [] -> None | insts -> Some (encode insts)
    in
    if new_desc <> old_desc then begin
      ignore
        (Ctx.log ctx ~source:Dmx_wal.Log_record.Catalog ~rel_id:desc.rel_id
           ~data:
             (Catalog.encode_op
                (Catalog.Set_attachment
                   {
                     rel_id = desc.rel_id;
                     slot = id ();
                     old_desc;
                     new_desc;
                   })));
      Catalog.set_attachment_slot ctx.Ctx.catalog ~rel_id:desc.rel_id
        ~slot:(id ()) new_desc
    end
end

let parse_fields schema spec =
  let names = String.split_on_char ',' spec |> List.map String.trim in
  let rec loop acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | n :: rest -> begin
      match Schema.field_index schema n with
      | Some i ->
        if List.mem i acc then Error (Fmt.str "duplicate field %S" n)
        else loop (i :: acc) rest
      | None -> Error (Fmt.str "unknown field %S" n)
    end
  in
  if names = [] || names = [ "" ] then Error "empty field list"
  else loop [] names

let scan_relation ctx (desc : Dmx_catalog.Descriptor.t) f =
  let (module M : Intf.STORAGE_METHOD) =
    Registry.storage_method desc.smethod_id
  in
  let scan = M.scan ctx desc () in
  let rec loop () =
    match scan.Intf.rs_next () with
    | None -> scan.Intf.rs_close ()
    | Some (key, record) ->
      f key record;
      loop ()
  in
  loop ()

let encode_reckey_value key =
  Value.String (Bytes.to_string (Record_key.encode key))

let decode_reckey_value = function
  | Value.String s -> Record_key.decode (Bytes.of_string s)
  | v ->
    Error.raise_err
      (Error.Internal (Fmt.str "not an encoded record key: %a" Value.pp v))
