(** Extension registration and procedure vectors.

    "For each direct or indirect generic operation, there is a vector of
    addresses for the procedures that implement the corresponding operation
    ... Storage method and attachment internal identifiers are small integers
    that serve as indexes into the vectors of procedures" (paper p. 224).

    Extensions are bound "at the factory": registration happens at program
    start, before the database opens; {!freeze} is called by the open path and
    later registration raises. Identifiers are assigned in registration order
    and are persisted in catalogs, so a deployment must register its
    extensions in a stable order — the moral equivalent of relinking the DBMS
    ([bin/figure2.expected] pins the default factory's ids).

    Every extension registers by one rule, {!Once}: a storage method applies
    {!Smethod} to its name, an attachment type [Attach_util.Slot] to its
    payload codec, and writes its procedures and little else. The per-entry
    setters below are what those functors call, and what a wrapper that
    re-registers an extension calls directly.

    Besides the module handles, the registry materialises per-operation
    procedure vectors ({!Vec}); dispatching a relation modification costs one
    array index per operation. *)

open Dmx_value
open Dmx_catalog

val max_storage_methods : int

val register_storage_method : (module Intf.STORAGE_METHOD) -> int
(** Returns the assigned storage-method id. Raises [Invalid_argument] on
    duplicate names, a full vector, or after {!freeze}. *)

val register_attachment : (module Intf.ATTACHMENT) -> int
(** Attachment type ids also index the relation descriptor's slots, so at most
    {!Descriptor.max_attachment_types} types exist. *)

val set_sm_insert_batch :
  int ->
  (Ctx.t -> Descriptor.t -> Record.t array ->
   (Record_key.t array, Error.t) result) ->
  unit
(** Override the optional bulk-insert entry of a storage method's procedure
    vector. Without an override the entry loops the per-record [sm_insert]
    slot, so registering one is purely an optimization. Raises after
    {!freeze} or for an out-of-range id. *)

val set_sm_scan_batch :
  int ->
  (Ctx.t -> Descriptor.t -> lo:Intf.key_bound -> hi:Intf.key_bound ->
   filter:Dmx_expr.Expr.t option -> Intf.run_scan) ->
  unit
(** Override the optional vectorized-scan entry of a storage method's
    procedure vector. Without an override the entry chunks the method's
    record-at-a-time [scan] into runs of {!Scan_help.run_length} records, so
    registering one is purely an optimization. Raises after {!freeze} or for
    an out-of-range id. *)

val set_at_insert_batch :
  int ->
  (Ctx.t -> Descriptor.t -> slot:string -> (Record_key.t * Record.t) array ->
   (unit, Error.t) result) ->
  unit
(** Same for an attachment type's bulk [on_insert] entry. *)

type redo = Ctx.t -> rel_id:int -> data:string -> unit

val set_sm_redo : int -> redo -> unit
(** Install a storage method's redo entry: restart's redo pass repeats a
    logged change the store may have lost. Like [undo] it must be testable
    — redoing a change the store already holds is a no-op — because
    restart repeats the log from the last checkpoint over pages that may be
    newer (DESIGN.md §15). Every logging extension installs one in its
    [register]. The entry belongs to the extension's name: registering the
    same name again after {!reset_for_testing} (a wrapper around the
    extension) finds it again. Raises after {!freeze} or for an
    unregistered id. *)

val set_at_redo : int -> redo -> unit
(** Same for an attachment type. *)

val set_sm_page_bound : int -> (string -> int) -> unit
(** Install a storage method's page bound: the highest page id one of its
    [Ext] records names (0 for none). Restart grows the page store to the
    largest bound of the retained log before redo, so a page a logged
    record names exists, and no allocation redo repeats (a B-tree split run
    again) can take it. A method whose records name the pages it allocated
    (the heap's directory appends) installs one; the entry belongs to the
    name, like {!set_sm_redo}. *)

val sm_page_bound : int -> string -> int
(** The page bound of the storage method with this id; [fun _ -> 0] when
    none was installed. *)

val sm_redo : int -> redo
(** The redo entry of the storage method with this id, found by its name;
    raises when none was installed. *)

val at_redo : int -> redo
(** Same for an attachment type. *)

val freeze : unit -> unit
val is_frozen : unit -> bool
val reset_for_testing : unit -> unit
(** Clears all registrations (unit tests only — never in a live system). *)

(** The registration rule of one extension: the first [register] assigns
    the id and caches it, later calls return it. *)
module Once (_ : sig
  val kind : string
  val name : string
end) : sig
  val id : unit -> int
  (** The registered id; raises [Internal "<name>: <kind> not registered"]
      before {!register}. *)

  val register : (unit -> int) -> int
  (** Run the installer (it registers and returns the id) on the first call
      only; every call returns the id. *)
end

(** {!Once} for the storage method of this name. *)
module Smethod (_ : sig
  val name : string
end) : sig
  val id : unit -> int

  val register :
    ?insert_batch:
      (Ctx.t -> Descriptor.t -> Record.t array ->
       (Record_key.t array, Error.t) result) ->
    ?scan_batch:
      (Ctx.t -> Descriptor.t -> lo:Intf.key_bound -> hi:Intf.key_bound ->
       filter:Dmx_expr.Expr.t option -> Intf.run_scan) ->
    ?page_bound:(string -> int) ->
    redo:redo -> (module Intf.STORAGE_METHOD) -> int
  (** Register the method once with its redo entry and whichever optional
      entries it has ({!set_sm_insert_batch}, {!set_sm_scan_batch},
      {!set_sm_page_bound}); later calls return the same id and install
      nothing. *)

  val log : Ctx.t -> rel_id:int -> string -> unit
  (** Append an undoable record of this method for relation [rel_id] to the
      transaction's log, under the registered id. *)
end

val storage_method : int -> (module Intf.STORAGE_METHOD)
val attachment : int -> (module Intf.ATTACHMENT)
val storage_method_id : string -> int option
val attachment_id : string -> int option
val storage_method_name : int -> string
val attachment_name : int -> string
val storage_methods : unit -> (int * string) list
val attachments : unit -> (int * string) list

(** The materialised direct-operation and attached-procedure vectors. Entry
    [id] of each array is the registered implementation's routine; unused
    entries raise. *)
module Vec : sig
  val sm_insert :
    (Ctx.t -> Descriptor.t -> Record.t -> (Record_key.t, Error.t) result) array

  val sm_update :
    (Ctx.t -> Descriptor.t -> Record_key.t -> Record.t ->
     (Record_key.t, Error.t) result)
    array

  val sm_delete :
    (Ctx.t -> Descriptor.t -> Record_key.t -> (Record.t, Error.t) result) array

  val at_on_insert :
    (Ctx.t -> Descriptor.t -> slot:string -> Record_key.t -> Record.t ->
     (unit, Error.t) result)
    array

  val at_on_update :
    (Ctx.t -> Descriptor.t -> slot:string -> old_key:Record_key.t ->
     new_key:Record_key.t -> old_record:Record.t -> new_record:Record.t ->
     (unit, Error.t) result)
    array

  val at_on_delete :
    (Ctx.t -> Descriptor.t -> slot:string -> Record_key.t -> Record.t ->
     (unit, Error.t) result)
    array

  (** Optional bulk entries (see {!set_sm_insert_batch} /
      {!set_at_insert_batch}); the default implementations loop the
      per-record slots above. *)

  val sm_insert_batch :
    (Ctx.t -> Descriptor.t -> Record.t array ->
     (Record_key.t array, Error.t) result)
    array

  val at_on_insert_batch :
    (Ctx.t -> Descriptor.t -> slot:string ->
     (Record_key.t * Record.t) array -> (unit, Error.t) result)
    array

  val sm_scan_batch :
    (Ctx.t -> Descriptor.t -> lo:Intf.key_bound -> hi:Intf.key_bound ->
     filter:Dmx_expr.Expr.t option -> Intf.run_scan)
    array
  (** Vectorized scans (see {!set_sm_scan_batch}); the default chunks the
      method's record-at-a-time scan. *)
end
