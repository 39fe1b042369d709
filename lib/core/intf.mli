(** The generic abstractions (Figure 2 of the paper).

    A *storage method* is an alternative implementation of relation storage; an
    *attachment* is an access path, integrity constraint or trigger associated
    with relation instances. "The key to supporting data management extensions
    is to define generic abstractions for relation storage and access, and to
    view extensions as alternative implementations of the generic
    abstractions" (paper p. 226). New extensions implement one of these module
    types and are registered "at the factory" through {!Registry}. *)

open Dmx_value
open Dmx_catalog

(** Bounds on composed record keys for key-sequential access. *)
type key_bound = Value.key_bound =
  | Incl of Value.t array
  | Excl of Value.t array
  | Unbounded

(** A key-sequential record stream from a storage method.

    Scan-position semantics follow the paper (p. 223): a scan is *on* the last
    item returned; deleting the item at the current position leaves the scan
    just *after* it; [next] always returns the first item after the current
    position. [capture] snapshots the position and returns the thunk restoring
    it (run after partial rollback). *)
type record_scan = {
  rs_next : unit -> (Record_key.t * Record.t) option;
  rs_close : unit -> unit;
  rs_capture : unit -> (unit -> unit);
}

(** One run of a vectorized scan: records delivered in scan order. Runs are
    never empty — a producer whose remaining records are all filtered out
    returns [None] from [rn_next] instead of an empty array. *)
type record_run = (Record_key.t * Record.t) array

(** The batch counterpart of {!record_scan}: same key-sequential order and
    scan-position semantics, delivered a run at a time. The scan position
    after [rn_next] is *on the last record of the run*; [rn_capture]
    snapshots between runs. Dispatched through [Registry.Vec.sm_scan_batch],
    which defaults to chunking the method's record-at-a-time scan, so a
    native producer is purely an optimization. *)
type run_scan = {
  rn_next : unit -> record_run option;
  rn_close : unit -> unit;
  rn_capture : unit -> (unit -> unit);
}

(** A key-sequential stream of record keys from an access-path attachment
    ("access paths ... support direct-by-key and (optionally) key-sequential
    accesses which return the storage method key"). *)
type key_scan = {
  ks_next : unit -> Record_key.t option;
  ks_close : unit -> unit;
  ks_capture : unit -> (unit -> unit);
}

(** An access-path candidate reported to the planner by an attachment. *)
type access_candidate = {
  ac_instance : int;  (** "access via B-tree number 3" *)
  ac_estimate : Cost.estimate;
  ac_key_fields : int array option;
      (** key composition, when the access is driven by record-field
          equality/range bounds (B-tree, hash) — lets the planner derive
          concrete bounds at execution time *)
  ac_spatial_rect : Dmx_expr.Expr.t array option;
      (** the recognised ENCLOSES query rectangle (R-tree) *)
}

(** Generic operations every relation storage method must supply. Undoable
    operations log their own undo information through [Ctx.log] with source
    [Smethod id]; [undo] must be *testable* (see Txn_mgr). *)
module type STORAGE_METHOD = sig
  val name : string

  val attr_specs : Attrlist.spec list
  (** Declares the extension-specific DDL attributes this method accepts; the
      common DDL facility validates lists against it and the method may do
      further checking in [create]. *)

  val create :
    Ctx.t -> rel_id:int -> Schema.t -> Attrlist.t -> (string, Error.t) result
  (** Create storage for a new relation; returns the initial storage-method
      descriptor (opaque to the common system). *)

  val destroy : Ctx.t -> rel_id:int -> smethod_desc:string -> unit
  (** Release the relation's storage. Called from the deferred-action queue at
      commit of the dropping transaction, making drop undoable without logging
      the relation's whole state (paper p. 224). *)

  val insert :
    Ctx.t -> Descriptor.t -> Record.t -> (Record_key.t, Error.t) result

  val update :
    Ctx.t -> Descriptor.t -> Record_key.t -> Record.t ->
    (Record_key.t, Error.t) result
  (** Returns the (possibly changed) record key. *)

  val delete :
    Ctx.t -> Descriptor.t -> Record_key.t -> (Record.t, Error.t) result
  (** Returns the old record (handed to attached procedures). *)

  val fetch :
    Ctx.t -> Descriptor.t -> Record_key.t -> ?fields:int array -> unit ->
    Record.t option
  (** Direct-by-key access to selected fields. *)

  val scan :
    Ctx.t -> Descriptor.t -> ?lo:key_bound -> ?hi:key_bound ->
    ?filter:Dmx_expr.Expr.t -> unit -> record_scan
  (** Key-sequential access. [lo]/[hi] bound the storage method's key order
      when it has one; [filter] is evaluated by the common predicate service
      against each record while it is in the buffer pool — non-qualifying
      records are skipped inside the storage method. *)

  val key_fields : Descriptor.t -> int array option
  (** Record-key composition when keys are field-composed ([None] for
      address-style keys such as RIDs). *)

  val record_count : Ctx.t -> Descriptor.t -> int

  val estimate_scan :
    Ctx.t -> Descriptor.t -> eligible:Dmx_expr.Expr.t list -> Cost.estimate
  (** Relevance + cost of scanning this relation given eligible predicates
      (access path 0 in plans). *)

  val undo : Ctx.t -> rel_id:int -> data:string -> unit
end

(** Generic operations every attachment type must supply. Attached procedures
    ([on_insert]/[on_update]/[on_delete]) are invoked *indirectly*, as side
    effects of relation modifications — once per modification per attachment
    type, servicing every instance recorded in the type's descriptor slot.
    Returning [Error] vetoes the entire relation modification; the common
    system then undoes the storage-method change and earlier attachments via
    the log. *)
module type ATTACHMENT = sig
  val name : string
  val attr_specs : Attrlist.spec list

  val create_instance :
    Ctx.t -> Descriptor.t -> instance_name:string -> Attrlist.t ->
    (string, Error.t) result
  (** Add an instance on the relation; receives the relation descriptor (whose
      slot for this type holds the current instances, if any) and returns the
      new slot descriptor. Must build initial state from existing records. *)

  val drop_instance :
    Ctx.t -> Descriptor.t -> instance_name:string ->
    (string option, Error.t) result
  (** Remove one instance; returns the new slot descriptor ([None] when it was
      the last). Storage release must be deferred to commit via [Ctx.defer]. *)

  val on_insert :
    Ctx.t -> Descriptor.t -> slot:string -> Record_key.t -> Record.t ->
    (unit, Error.t) result

  val on_update :
    Ctx.t -> Descriptor.t -> slot:string -> old_key:Record_key.t ->
    new_key:Record_key.t -> old_record:Record.t -> new_record:Record.t ->
    (unit, Error.t) result

  val on_delete :
    Ctx.t -> Descriptor.t -> slot:string -> Record_key.t -> Record.t ->
    (unit, Error.t) result

  val lookup :
    Ctx.t -> Descriptor.t -> slot:string -> instance:int ->
    key:Value.t array -> Record_key.t list
  (** Direct-by-key access: map an access-path key to record keys. Returns []
      for attachment types that are not access paths. *)

  val scan :
    Ctx.t -> Descriptor.t -> slot:string -> instance:int -> ?lo:key_bound ->
    ?hi:key_bound -> unit -> key_scan option
  (** Key-sequential access over the access path's key order; [None] when the
      type offers no scans. *)

  val estimate :
    Ctx.t -> Descriptor.t -> slot:string -> eligible:Dmx_expr.Expr.t list ->
    access_candidate list
  (** Access-path candidates (one per relevant instance) for the planner; []
      for non-access-path attachments. *)

  val undo : Ctx.t -> rel_id:int -> data:string -> unit
end
