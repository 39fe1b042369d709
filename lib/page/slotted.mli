(** Slotted-page record layout.

    Classic layout over one page of bytes: a slot directory grows from the
    page head, record payloads grow from the tail. Slot numbers are stable
    across deletes (tombstoned) so RID record keys stay valid, and in-place
    update is supported when the new payload fits — otherwise the caller
    relocates the record and the record key changes, which the architecture
    allows (attachments receive both old and new keys on update). *)

type slot = int

val init : bytes -> unit
(** Format an empty slotted page in place. *)

val formatted : bytes -> bool
(** Whether {!init} has run on the page. A zeroed page is not formatted; it
    reads as an empty page with no free space. *)

val slot_count : bytes -> int
(** Directory size, including tombstones. *)

val live_count : bytes -> int
val free_space : ?reserved:int -> bytes -> int
(** Bytes available for one more insert without compaction (directory entry
    accounted), leaving [reserved] bytes (default 0) of the page's free
    space untouched. *)

val max_payload : int -> int
(** [max_payload page_size] is the largest payload one empty page accepts. *)

val insert : bytes -> string -> slot option
(** Copy a payload into the page; [None] when it does not fit even after
    compaction. Tombstoned slots are reused. *)

val next_slot : bytes -> slot
(** The slot the next successful {!insert} uses: the first released
    tombstone, else [slot_count] — so a caller can log the record key before
    the page changes. *)

val read : bytes -> slot -> string option
(** [None] for tombstones and out-of-range slots. *)

val update : bytes -> slot -> string -> bool
(** Replace payload in place (possibly after compaction); [false] when the new
    payload does not fit or the slot is dead. *)

val delete : bytes -> slot -> bool
(** Tombstone a slot; [false] when already dead. A fresh tombstone is
    *pending*: its payload space becomes garbage but the slot itself is not
    reused until {!make_reusable} — the heap storage method defers that call
    to commit of the deleting transaction, so that undo of the delete can
    reinstate the record in its original slot ({!insert_at}) and no concurrent
    transaction captures the record id meanwhile. The heap keeps the freed
    bytes from other transactions by passing them as [reserved] to
    {!free_space} and {!fits}. *)

val make_reusable : bytes -> slot -> unit
(** Release a pending tombstone for reuse (a no-op on live or already-released
    slots). *)

val insert_at : bytes -> slot -> string -> bool
(** Occupy a specific dead slot (undo of delete), or slot [slot_count] as a
    new one. [false] when the slot is live or the payload no longer fits.
    Short of room, it and {!update} first drop the released tombstones after
    the slot that end the directory: an undone insert into a fresh slot
    leaves one there, and its directory bytes are part of the room the
    page had before that insert. *)

val fits : ?reserved:int -> bytes -> slot -> string -> bool
(** Whether {!set} of this payload into the slot succeeds, in place or
    after compaction, live or dead, and leaves [reserved] bytes (default 0)
    of the page's free space untouched. A payload no longer than the one
    held always fits. *)

val set : bytes -> slot -> string option -> bool
(** Make the slot hold the payload — {!update} when live, else
    {!insert_at} — or, with [None], {!delete} it (a pending tombstone). The
    write of a change image; [false] when it does not fit or the slot is
    already dead. *)

val iter : bytes -> (slot -> string -> unit) -> unit
(** Live records in slot order. *)

(** {2 The slot directory, read in place}

    Slot [s]'s directory entry is two little-endian u16s at
    [header_size + (s * slot_size)]: the payload's offset in the page, or
    [dead] for a tombstone, then the payload's length. A page scan reads
    the entries with [Bytes.get_uint16_le] in its own loop, which allocates
    nothing and costs no call per slot. *)

val header_size : int
val slot_size : int
val dead : int
