(** The heap storage method: records in slotted pages, RID record keys.

    The default recoverable storage method. Records live wherever they fit;
    record keys are page/slot addresses, so updates that no longer fit in
    place relocate the record and change its key (the architecture allows
    this: attached procedures receive both old and new keys).

    Every change is a {!Dmx_value.Image} of one RID's slot, logged before
    the slot write. Undo is the image's state check: undo-insert frees the
    slot when it still holds the inserted payload; undo-delete reinstates
    the payload in its original slot — guaranteed free because tombstones
    stay *pending* (unreusable) until the deleting transaction commits, at
    which point a deferred action releases them. *)

include Dmx_core.Intf.STORAGE_METHOD

(** {2 Slot images} shared with [readonly] *)

val set_slot :
  bytes -> int * int -> log:(string -> unit) ->
  (string option -> string option) -> string option
(** [set_slot data (page, slot) ~log f] is the slotted-page
    {!Dmx_value.Image.change} on the pinned page [data]: [f] maps the
    payload held in the slot to the new one ([None] leaves a pending
    tombstone). The caller passes only payloads that fit
    ({!Dmx_page.Slotted.fits}); a write that does not fit raises [Failure]. *)

val undo_slot : Dmx_core.Ctx.t -> pages:int list -> string -> int
(** Reverse a logged slot image ({!Dmx_value.Image.undo}) on one of the
    relation's [pages]; a no-op on any other page (a loser's page that no
    catalog snapshot listed, lost with the crash or reallocated since). An
    unformatted (zeroed) page is formatted first. An undone insert releases
    its slot at once. Returns the record-count change
    ({!Dmx_value.Image.count_delta}; 0 when nothing was reversed). *)

val redo_slot : Dmx_core.Ctx.t -> pages:int list -> string -> bool
(** Repeat a logged slot image ({!Dmx_value.Image.redo}) under the same
    page rule as {!undo_slot}. Whether it applied the change. *)

val register : unit -> int
(** Register with the procedure vectors; returns the storage-method id.
    Idempotent. *)

val id : unit -> int
(** The registered id; raises if {!register} has not run. *)
