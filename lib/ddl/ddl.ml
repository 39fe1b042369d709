open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog
module Log_record = Dmx_wal.Log_record
module Lock_table = Dmx_lock.Lock_table
module Lock_mode = Dmx_lock.Lock_mode

let ( let* ) = Result.bind

let log_catalog ctx ~rel_id op =
  ignore
    (Ctx.log ctx ~source:Log_record.Catalog ~rel_id
       ~data:(Catalog.encode_op op))

let find_relation ctx name =
  match Catalog.find ctx.Ctx.catalog name with
  | Some desc -> Ok desc
  | None -> Error (Error.No_such_relation name)

let lock_x ctx rel_id =
  Ctx.lock ctx ~mode:Lock_mode.X (Lock_table.Relation rel_id)

(* Catalog and attribute-list refusals are DDL errors. *)
let ddl_result r = Result.map_error (fun e -> Error.Ddl_error e) r

let create_relation ctx ~name ~schema ~storage_method ?(attrs = []) () =
  match Registry.storage_method_id storage_method with
  | None ->
    Error (Error.Ddl_error (Fmt.str "no storage method %S" storage_method))
  | Some smethod_id -> begin
    if Catalog.find ctx.Ctx.catalog name <> None then
      Error (Error.Ddl_error (Fmt.str "relation %S already exists" name))
    else begin
      let (module M : Intf.STORAGE_METHOD) =
        Registry.storage_method smethod_id
      in
      let rel_id = Catalog.next_rel_id ctx.Ctx.catalog in
      (* The fresh relation is invisible to concurrent transactions until
         commit — exempt its X lock from lockdep's order graph so a
         multi-relation DDL transaction doesn't record phantom orderings. *)
      Invariant.lockdep_mark_nascent ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id ~rel_id;
      let* () = lock_x ctx rel_id in
      let* () = ddl_result (Attrlist.validate M.attr_specs attrs) in
      let* smethod_desc = M.create ctx ~rel_id schema attrs in
      let* desc =
        ddl_result
          (Catalog.add_relation ctx.Ctx.catalog ~rel_name:name ~schema
             ~smethod_id ~smethod_desc)
      in
      log_catalog ctx ~rel_id (Catalog.Create_rel (Descriptor.copy desc));
      Ok desc
    end
  end

let drop_relation ctx ~name =
  let* desc = find_relation ctx name in
  let* () = lock_x ctx desc.Descriptor.rel_id in
  let* removed =
    ddl_result (Catalog.remove_relation ctx.Ctx.catalog desc.Descriptor.rel_id)
  in
  log_catalog ctx ~rel_id:desc.Descriptor.rel_id
    (Catalog.Drop_rel (Descriptor.copy removed));
  (* The storage is released only when the dropping transaction commits,
     so abort can reinstate the relation without logging its contents. *)
  let (module M : Intf.STORAGE_METHOD) =
    Registry.storage_method removed.Descriptor.smethod_id
  in
  let rel_id = removed.Descriptor.rel_id in
  let smethod_desc = removed.Descriptor.smethod_desc in
  Ctx.defer ctx Dmx_txn.Txn.On_commit (fun () ->
      M.destroy ctx ~rel_id ~smethod_desc);
  Ok ()

let resolve_attachment attachment_type =
  match Registry.attachment_id attachment_type with
  | None ->
    Error (Error.Ddl_error (Fmt.str "no attachment type %S" attachment_type))
  | Some at_id -> Ok at_id

let create_attachment ctx ~relation ~attachment_type ~name ?(attrs = []) () =
  let* desc = find_relation ctx relation in
  let* at_id = resolve_attachment attachment_type in
  let* () = lock_x ctx desc.Descriptor.rel_id in
  let (module A : Intf.ATTACHMENT) = Registry.attachment at_id in
  let old_slot = Descriptor.attachment_desc desc at_id in
  let* () = ddl_result (Attrlist.validate A.attr_specs attrs) in
  let* new_slot = A.create_instance ctx desc ~instance_name:name attrs in
  log_catalog ctx ~rel_id:desc.Descriptor.rel_id
    (Catalog.Set_attachment
       {
         rel_id = desc.Descriptor.rel_id;
         slot = at_id;
         old_desc = old_slot;
         new_desc = Some new_slot;
       });
  Catalog.set_attachment_slot ctx.Ctx.catalog ~rel_id:desc.Descriptor.rel_id
    ~slot:at_id (Some new_slot);
  Ok ()

let drop_attachment ctx ~relation ~attachment_type ~name =
  let* desc = find_relation ctx relation in
  let* at_id = resolve_attachment attachment_type in
  let* () = lock_x ctx desc.Descriptor.rel_id in
  let (module A : Intf.ATTACHMENT) = Registry.attachment at_id in
  let old_slot = Descriptor.attachment_desc desc at_id in
  let* new_slot = A.drop_instance ctx desc ~instance_name:name in
  log_catalog ctx ~rel_id:desc.Descriptor.rel_id
    (Catalog.Set_attachment
       {
         rel_id = desc.Descriptor.rel_id;
         slot = at_id;
         old_desc = old_slot;
         new_desc = new_slot;
       });
  Catalog.set_attachment_slot ctx.Ctx.catalog ~rel_id:desc.Descriptor.rel_id
    ~slot:at_id new_slot;
  Ok ()
