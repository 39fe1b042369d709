open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Expr = Dmx_expr.Expr
module Eval = Dmx_expr.Eval
module Parse = Dmx_expr.Parse

type inst = { pred : Expr.t; deferred : bool }

module Slot = Attach_util.Slot (struct
  let name = "check"

  type t = inst

  let enc e i =
    Dmx_value.Codec.Enc.string e (Bytes.to_string (Expr.encode i.pred));
    Dmx_value.Codec.Enc.bool e i.deferred

  let dec d =
    let pred = Expr.decode (Bytes.of_string (Dmx_value.Codec.Dec.string d)) in
    let deferred = Dmx_value.Codec.Dec.bool d in
    { pred; deferred }
end)

let id = Slot.id

let violation name record =
  Error.veto
    ~attachment:(Fmt.str "check constraint %S" name)
    (Fmt.str "record %a fails the predicate" Dmx_value.Record.pp record)

(* Immediate check: FALSE vetoes; TRUE and UNKNOWN pass (SQL semantics). *)
let test_now name inst record =
  match Eval.truth record inst.pred with
  | False -> Error (violation name record)
  | True | Unknown -> Ok ()
  | exception Eval.Error msg ->
    Error (Error.veto ~attachment:(Fmt.str "check constraint %S" name) msg)

(* Deferred check: re-fetch the record at commit; a record deleted since
   no longer needs checking. *)
let defer_check ctx (desc : Descriptor.t) name inst reckey =
  let (module M : Intf.STORAGE_METHOD) =
    Registry.storage_method desc.smethod_id
  in
  Ctx.defer ctx Dmx_txn.Txn.Before_prepare (fun () ->
      match M.fetch ctx desc reckey () with
      | None -> ()
      | Some record -> begin
        match test_now name inst record with
        | Ok () -> ()
        | Error e -> Error.raise_err e
      end)

module Impl = struct
  let name = "check"

  let attr_specs =
    [
      Attrlist.spec ~required:true "predicate" Attrlist.A_string;
      Attrlist.spec "deferred" Attrlist.A_bool;
    ]

  let create_instance ctx (desc : Descriptor.t) ~instance_name attrs =
    Slot.add desc ~instance_name ~what:"constraint" (fun () ->
        match
          Parse.parse desc.schema
            (Option.get (Attrlist.find attrs "predicate"))
        with
        | Error e -> Error (Error.Ddl_error ("bad predicate: " ^ e))
        | Ok pred -> (
          let deferred =
            match Attrlist.get_bool attrs "deferred" with
            | Ok (Some b) -> b
            | Ok None | Error _ -> false
          in
          (* Existing records must already satisfy the constraint. *)
          let bad = ref None in
          Attach_util.scan_relation ctx desc (fun _ record ->
              if !bad = None && Eval.truth record pred = Eval.False then
                bad := Some record);
          match !bad with
          | Some record ->
            Error
              (Error.Constraint_violation
                 (Fmt.str "existing record %a violates the predicate"
                    Dmx_value.Record.pp record))
          | None -> Ok { pred; deferred }))

  let drop_instance _ctx = Slot.drop_instance

  let on_insert ctx (desc : Descriptor.t) ~slot reckey record =
    Slot.each slot (fun _no name inst ->
        if inst.deferred then begin
          defer_check ctx desc name inst reckey;
          Ok ()
        end
        else test_now name inst record)

  let on_update ctx (desc : Descriptor.t) ~slot ~old_key:_ ~new_key
      ~old_record:_ ~new_record =
    Slot.each slot (fun _no name inst ->
        if inst.deferred then begin
          defer_check ctx desc name inst new_key;
          Ok ()
        end
        else test_now name inst new_record)

  let on_delete _ctx _desc ~slot:_ _reckey _record = Ok ()

  let lookup _ctx _desc ~slot:_ ~instance:_ ~key:_ = []
  let scan _ctx _desc ~slot:_ ~instance:_ ?lo:_ ?hi:_ () = None
  let estimate _ctx _desc ~slot:_ ~eligible:_ = []

  let undo _ctx ~rel_id:_ ~data:_ =
    (* Check constraints keep no state and log nothing. *)
    ()

  let redo _ctx ~rel_id:_ ~data:_ = ()
end

include Impl

let register () = Slot.register ~redo:Impl.redo (module Impl : Intf.ATTACHMENT)
