(** Trigger attachment.

    "Any attachment can ... trigger actions both inside and outside the
    database in addition to providing alternative means of accessing data"
    (paper p. 222). Trigger functions are OCaml procedures registered at the
    factory under a name ({!register_function}); instances bind a function to
    a relation for a set of events (DDL attributes [function] and
    [events=insert,update,delete]). A trigger may veto by returning an error,
    and may modify other relations through {!Dmx_core.Relation} — such
    modifications cascade and are undone by the common log on veto/abort. *)

open Dmx_value

type event = On_insert | On_update | On_delete

type fire = {
  fire_event : event;
  fire_relation : Dmx_catalog.Descriptor.t;
  fire_old : Record.t option;  (** delete/update *)
  fire_new : Record.t option;  (** insert/update *)
  fire_key : Record_key.t;
}

type func = Dmx_core.Ctx.t -> fire -> (unit, Dmx_core.Error.t) result

val register_function : string -> func -> unit
(** Raises [Error (Internal _)] on duplicates. Factory-time, like all
    extension binding. *)

include Dmx_core.Intf.ATTACHMENT

val register : unit -> int
val id : unit -> int
