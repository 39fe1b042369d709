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

(** {2 Descriptor} *)

type hdesc = { pages : int list; count : int }
(** The relation's data pages and its advisory record count, encoded as
    [list(varint page) ; varint count]. *)

val enc_desc : hdesc -> string

val with_count : string -> int -> string
(** [with_count s n] is [enc_desc { (dec s) with count = n }] byte for byte,
    without decoding the page list: the count is the last varint, found by
    walking back from the end. Delete and undo change only the count. *)

(** {2 Slotted pages} shared with [readonly], which keeps its own page
    list. {!fetch} reads any RID and ignores the descriptor. *)

val scan_pages :
  Dmx_core.Ctx.t -> Dmx_catalog.Descriptor.t -> pages:int list ->
  filter:Dmx_expr.Expr.t option -> Dmx_core.Intf.run_scan
(** The batch scan of [pages]: one run per page, decoded under one pin;
    a filter the span matcher ({!Dmx_expr.Eval.compile_span}) cannot take
    is tested on the decoded record. *)

val estimate_pages :
  pages:int list -> count:int -> eligible:Dmx_expr.Expr.t list ->
  Dmx_core.Cost.estimate
(** A full scan's cost over [pages] holding [count] records. *)


val set_slot :
  bytes -> int * int -> log:(string -> unit) ->
  (string option -> string option) -> string option
(** [set_slot data (page, slot) ~log f] is the slotted-page
    {!Dmx_value.Image.change} on the pinned page [data]: [f] maps the
    payload held in the slot to the new one ([None] leaves a pending
    tombstone). The caller passes only payloads that fit
    ({!Dmx_page.Slotted.fits}); a write that does not fit raises
    [Internal]. *)

val undo_slot : Dmx_core.Ctx.t -> pages:int list -> string -> int
(** Reverse a logged slot image ({!Dmx_value.Image.undo}) on one of the
    relation's [pages]; a no-op on any other page (a loser's page that no
    catalog snapshot listed, lost with the crash or reallocated since). An
    unformatted (zeroed) page is formatted first. An undone insert releases
    its slot at once. Returns the record-count change
    ({!Dmx_value.Image.count_delta}; 0 when nothing was reversed). *)

val redo_slot : Dmx_core.Ctx.t -> pages:int list -> string -> bool
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
