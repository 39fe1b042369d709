open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist

type event = On_insert | On_update | On_delete

type fire = {
  fire_event : event;
  fire_relation : Descriptor.t;
  fire_old : Record.t option;
  fire_new : Record.t option;
  fire_key : Record_key.t;
}

type func = Ctx.t -> fire -> (unit, Error.t) result

let functions : (string, func) Hashtbl.t = Hashtbl.create 16 [@@dmx.global "config-immutable-after-setup"]

let register_function name f =
  let key = String.lowercase_ascii name in
  if Hashtbl.mem functions key then
    Error.raise_err
      (Error.Internal
         (Fmt.str "Trigger.register_function: %S already registered" name));
  Hashtbl.replace functions key f

type inst = {
  func : string;
  on_ins : bool;
  on_upd : bool;
  on_del : bool;
}

module Slot = Attach_util.Slot (struct
  let name = "trigger"

  type t = inst

  let enc e i =
    Codec.Enc.string e i.func;
    Codec.Enc.bool e i.on_ins;
    Codec.Enc.bool e i.on_upd;
    Codec.Enc.bool e i.on_del

  let dec d =
    let func = Codec.Dec.string d in
    let on_ins = Codec.Dec.bool d in
    let on_upd = Codec.Dec.bool d in
    let on_del = Codec.Dec.bool d in
    { func; on_ins; on_upd; on_del }
end)

let id = Slot.id

let fire_func ctx name inst fire =
  match Hashtbl.find_opt functions (String.lowercase_ascii inst.func) with
  | None ->
    Error
      (Error.Internal
         (Fmt.str "trigger %S: function %S is not registered" name inst.func))
  | Some f -> begin
    match f ctx fire with
    | Ok () -> Ok ()
    | Error e -> Error e
    | exception Error.Error e -> Error e
  end

module Impl = struct
  let name = "trigger"

  let attr_specs =
    [
      Attrlist.spec ~required:true "function" Attrlist.A_string;
      Attrlist.spec ~required:true "events" Attrlist.A_string;
    ]

  let create_instance _ctx (desc : Descriptor.t) ~instance_name attrs =
    Slot.add desc ~instance_name ~what:"trigger" (fun () ->
        let func = Option.get (Attrlist.find attrs "function") in
        if not (Hashtbl.mem functions (String.lowercase_ascii func)) then
          Error
            (Error.Ddl_error
               (Fmt.str "trigger function %S is not registered at the factory"
                  func))
        else begin
          let events =
            String.split_on_char ','
              (Option.get (Attrlist.find attrs "events"))
            |> List.map (fun s -> String.lowercase_ascii (String.trim s))
          in
          let bad =
            List.find_opt
              (fun e -> not (List.mem e [ "insert"; "update"; "delete" ]))
              events
          in
          match bad with
          | Some e -> Error (Error.Ddl_error (Fmt.str "unknown event %S" e))
          | None ->
            Ok
              {
                func;
                on_ins = List.mem "insert" events;
                on_upd = List.mem "update" events;
                on_del = List.mem "delete" events;
              }
        end)

  let drop_instance _ctx = Slot.drop_instance

  let on_insert ctx (desc : Descriptor.t) ~slot reckey record =
    Slot.each slot (fun _no name inst ->
        if not inst.on_ins then Ok ()
        else
          fire_func ctx name inst
            {
              fire_event = On_insert;
              fire_relation = desc;
              fire_old = None;
              fire_new = Some record;
              fire_key = reckey;
            })

  let on_update ctx (desc : Descriptor.t) ~slot ~old_key:_ ~new_key
      ~old_record ~new_record =
    Slot.each slot (fun _no name inst ->
        if not inst.on_upd then Ok ()
        else
          fire_func ctx name inst
            {
              fire_event = On_update;
              fire_relation = desc;
              fire_old = Some old_record;
              fire_new = Some new_record;
              fire_key = new_key;
            })

  let on_delete ctx (desc : Descriptor.t) ~slot reckey record =
    Slot.each slot (fun _no name inst ->
        if not inst.on_del then Ok ()
        else
          fire_func ctx name inst
            {
              fire_event = On_delete;
              fire_relation = desc;
              fire_old = Some record;
              fire_new = None;
              fire_key = reckey;
            })

  let lookup _ctx _desc ~slot:_ ~instance:_ ~key:_ = []
  let scan _ctx _desc ~slot:_ ~instance:_ ?lo:_ ?hi:_ () = None
  let estimate _ctx _desc ~slot:_ ~eligible:_ = []

  let undo _ctx ~rel_id:_ ~data:_ =
    (* Trigger database effects go through relation operations which log
       themselves; external effects are the application's business. *)
    ()

  let redo _ctx ~rel_id:_ ~data:_ = ()
end

include Impl

let register () = Slot.register ~redo:Impl.redo (module Impl : Intf.ATTACHMENT)
