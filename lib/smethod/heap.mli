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
    which point a deferred action releases them. The bytes a delete or an
    in-place shrink frees stay the transaction's own until it ends: no
    other transaction's insert or update takes them, so undo always finds
    room. *)

include Dmx_core.Intf.STORAGE_METHOD

(** {2 Directory}

    A relation's descriptor holds only the head page of its directory: a
    chain of heap-owned pages listing its data pages in the order they
    were added, and holding the chain's tail and the advisory record count
    on the head. A fresh data page is added under the heap's own logged
    records ([Append], and [Link] when the tail is full), whose redo checks
    the state; they are not undone, so a page a rolled-back transaction
    added stays listed and empty. DML never changes the descriptor. *)

val create_head : Dmx_core.Ctx.t -> int
(** Allocate the head of an empty directory: a zeroed page, allocated in
    the store with nothing to log; the DDL commit's sync makes it
    durable. *)

val log_new_page : Dmx_core.Ctx.t -> log:(string -> unit) -> int -> int
(** [log_new_page ctx ~log head] allocates and formats a data page and adds
    it to the directory of [head]; each directory record goes to [log]
    before it is written. Returns the page. *)

val data_pages : Dmx_core.Ctx.t -> int -> int array
(** The data pages the directory of [head] lists, oldest first. *)

val directory : Dmx_core.Ctx.t -> int -> int list
(** The directory's own pages, [head] first. *)

val head_of : Dmx_catalog.Descriptor.t -> int
(** The head page a heap descriptor names: its leading varint, which is
    the whole heap descriptor. A method sharing the heap's pages
    ([readonly]) starts its own descriptor with it. *)

val last_page : Dmx_core.Ctx.t -> int -> int option
(** The newest data page the directory of [head] lists. *)

val add_count : Dmx_core.Ctx.t -> int -> int -> unit
(** [add_count ctx head delta] moves the advisory record count on the head
    page (floored at 0), unlogged: exact within a process, as last written
    across a crash. *)

val redo : Dmx_core.Ctx.t -> rel_id:int -> data:string -> unit
(** The redo entry: a directory record is applied where the pages do not
    hold it yet, a slot image by {!redo_slot}. *)

val page_bound : string -> int
(** The highest page a heap record names (its {!Dmx_core.Registry}
    page bound): the pages of a directory record, 0 for a slot image. *)

(** {2 Slotted pages} shared with [readonly]. {!fetch} reads any RID and
    ignores the descriptor; {!record_count}, {!scan_batch},
    {!estimate_scan}, {!undo} and {!redo} read only the head page id at the
    start of the descriptor. *)

val scan_pages :
  Dmx_core.Ctx.t -> Dmx_catalog.Descriptor.t ->
  filter:Dmx_expr.Expr.t option -> Dmx_core.Intf.run_scan
(** The batch scan of the pages the directory lists when it opens: one run
    per page, decoded under one pin; a filter the span matcher
    ({!Dmx_expr.Eval.compile_span}) cannot take is tested on the decoded
    record. *)

val set_slot :
  bytes -> int * int -> log:(string -> unit) ->
  (string option -> string option) -> string option
(** [set_slot data (page, slot) ~log f] is the slotted-page
    {!Dmx_value.Image.change} on the pinned page [data]: [f] maps the
    payload held in the slot to the new one ([None] leaves a pending
    tombstone). The caller passes only payloads that fit
    ({!Dmx_page.Slotted.fits}); a write that does not fit raises
    [Internal]. *)

val undo_slot : Dmx_core.Ctx.t -> string -> int
(** Reverse a logged slot image ({!Dmx_value.Image.undo}); a no-op on a
    page the store does not hold. An unformatted (zeroed) page is formatted
    first. An undone insert releases its slot at once. Returns the
    record-count change ({!Dmx_value.Image.count_delta}; 0 when nothing was
    reversed). *)

val redo_slot : Dmx_core.Ctx.t -> string -> bool
(** Repeat a logged slot image ({!Dmx_value.Image.redo}) under the same
    page rule as {!undo_slot}. An image whose payload does not fit meets a
    page newer than its record (a later record took its bytes): when no
    earlier record touched the slot it is not applied; otherwise redo may
    have walked the slot back to an earlier state, and it raises
    [Internal]. Whether it applied the change. *)

val register : unit -> int
(** Register with the procedure vectors; returns the storage-method id.
    Idempotent. *)

val id : unit -> int
(** The registered id; raises if {!register} has not run. *)
