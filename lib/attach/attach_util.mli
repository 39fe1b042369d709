(** Shared helpers for attachment implementations.

    A descriptor slot holds *all* instances of one attachment type on a
    relation, as a list of (instance number, instance name, payload). An
    attachment type writes only its payload codec ({!PAYLOAD}); {!Slot} owns
    every rule about the slot around it: the registry id (by
    {!Dmx_core.Registry.Once}, the rule storage methods register by too),
    the slot encoding, instance lookup, the DDL bookkeeping (duplicate
    names, instance numbers, NULL once the last instance goes), the
    undo-time lookup through the catalog, and the logged rewrite of another
    relation's slot. The module also holds the scan/lookup plumbing shared
    by the access paths. *)

open Dmx_value
open Dmx_core

type 'a instances = (int * string * 'a) list
(** (instance number, instance name, payload), ascending instance number. *)

(** What one attachment type supplies: its name and payload codec. *)
module type PAYLOAD = sig
  val name : string
  (** Names the type in the "not registered" diagnostic. *)

  type t

  val enc : Codec.Enc.t -> t -> unit
  val dec : Codec.Dec.t -> t
end

module Slot (P : PAYLOAD) : sig
  val id : unit -> int
  (** The registered attachment id (= descriptor slot number); raises
      [Internal] before {!register}. *)

  val register :
    ?insert_batch:
      (Ctx.t -> Dmx_catalog.Descriptor.t -> slot:string ->
       (Record_key.t * Record.t) array -> (unit, Error.t) result) ->
    redo:(Ctx.t -> rel_id:int -> data:string -> unit) ->
    (module Intf.ATTACHMENT) -> int
  (** Register the implementation, its redo entry
      ({!Dmx_core.Registry.set_at_redo}) and its bulk [on_insert] entry once;
      later calls return the same id. *)

  val decode : string -> P.t instances

  val of_desc : Dmx_catalog.Descriptor.t -> P.t instances
  (** The relation's instances of this type; [[]] when the slot is NULL. *)

  val each :
    string -> (int -> string -> P.t -> (unit, Error.t) result) ->
    (unit, Error.t) result
  (** Apply to every instance of a slot in order, stopping at the first
      error. *)

  val by_no : string -> int -> P.t option
  (** Instance of a slot by number. *)

  val by_name : Dmx_catalog.Descriptor.t -> string -> (int * P.t) option
  (** Instance of a relation by name (case-insensitive), with its number. *)

  val log : Ctx.t -> Dmx_catalog.Descriptor.t -> string -> unit
  (** Append an undoable record of this type for the relation to the
      transaction's log, under the registered id. *)

  val in_catalog : Ctx.t -> rel_id:int -> int -> P.t option
  (** Instance [no] of relation [rel_id] as the catalog holds it now — the
      lookup undo starts from. *)

  val append : string -> P.t -> P.t instances -> P.t instances
  (** Add a named instance under the next instance number. *)

  val remove : string -> P.t instances -> P.t instances
  (** Remove the instances with this name. *)

  val add :
    Dmx_catalog.Descriptor.t -> instance_name:string -> what:string ->
    (unit -> (P.t, Error.t) result) -> (string, Error.t) result
  (** [create_instance]'s bookkeeping: reject a duplicate name with
      [Ddl_error "<what> \"<name>\" already exists"], else run [build] and
      append its payload. The slot is re-read after [build], so a mirror
      instance that [build] installed on this same relation is kept. *)

  val drop :
    Dmx_catalog.Descriptor.t -> instance_name:string ->
    (P.t * string option, Error.t) result
  (** [drop_instance]'s bookkeeping: the dropped payload and the new slot
      ([None] once empty), or [No_such_attachment]. *)

  val drop_instance :
    Dmx_catalog.Descriptor.t -> instance_name:string ->
    (string option, Error.t) result
  (** A whole [drop_instance] for a type with no mirror instance: {!drop}'s
      new slot. *)

  val set_on :
    Ctx.t -> Dmx_catalog.Descriptor.t -> (P.t instances -> P.t instances) ->
    unit
  (** Rewrite this type's slot on another relation (the mirror side of a
      cross-relation attachment) as a logged, undoable catalog change. Logs
      nothing when the slot is unchanged. *)
end

val parse_fields :
  Schema.t -> string -> (int array, string) result
(** Parse a comma-separated field-name list against a schema. *)

val scan_relation :
  Ctx.t -> Dmx_catalog.Descriptor.t ->
  (Record_key.t -> Record.t -> unit) -> unit
(** Iterate every record of a relation through its storage method — used when
    building a new access path from existing records. *)

val encode_reckey_value : Record_key.t -> Value.t
(** Record keys embedded in index entries, as an order-stable string value. *)

val decode_reckey_value : Value.t -> Record_key.t
