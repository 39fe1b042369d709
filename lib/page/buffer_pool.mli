(** Buffer pool.

    Fixed-capacity page cache over a {!Disk} store with pin/unpin,
    second-chance clock eviction of unpinned frames (O(1) amortized — the
    hand advances over a frame array; the hashtable is only the page-id →
    slot map), and a write-ahead-log hook: before a dirty frame reaches the
    backing store, the registered hook is called with the frame's latest LSN
    so the log can be forced first.

    The paper expects filter predicates to be evaluated "while the field
    values from the relation storage or access path are still in the buffer
    pool" — storage methods therefore work directly on pinned frame bytes. *)

type t

type frame = private {
  page_id : int;
  data : bytes;  (** one page; mutate in place while pinned *)
  mutable dirty : bool;
  mutable pin_count : int;
  mutable page_lsn : int64;
  mutable ref_bit : bool;  (** clock reference bit; set on every pin *)
}

val create : ?capacity:int -> Disk.t -> t
(** [capacity] defaults to 256 frames. *)

val disk : t -> Disk.t
val capacity : t -> int

val page_live : t -> int -> bool
(** Whether [id] names a page of the backing store. Redo and undo entry
    points probe this before pinning: a loser's logged effect can name a
    page allocated after the last sync that no catalog snapshot listed,
    which restart does not bring back — there is nothing durable to redo or
    undo on it. *)

val set_flush_hook : t -> (int64 -> unit) -> unit
(** Called with the frame's page LSN before a dirty frame is written. *)

val set_log_end : t -> (unit -> int64) -> unit
(** The log's end LSN. A frame unpinned dirty, or freshly allocated, is
    stamped with it: every extension logs a change before writing it, so
    the stamp covers the frame, and write-back need harden the log only when
    the stamp is above what is already durable. *)

val pin : ?txid:int -> t -> int -> frame
(** Fetch (or find cached) page; increments the pin count. Raises [Failure]
    when every frame is pinned. On a miss, [txid] charges the fill (and any
    eviction write-back it forces) to that transaction in the profile;
    omitted, the cost falls to the enclosing profile frame's transaction. *)

val unpin : ?dirty:bool -> ?lsn:int64 -> t -> frame -> unit
(** Release one pin; [dirty] marks the frame modified and [lsn] records the
    log record covering the modification. *)

val alloc : t -> frame
(** Allocate a fresh page on the disk and return its (pinned, dirty) frame. *)

val with_page : t -> int -> (frame -> 'a) -> 'a
(** Pin, apply, unpin (not dirty). *)

val with_page_mut : t -> int -> (frame -> 'a) -> 'a
(** Pin, apply, unpin dirty (stamped with the log's end, {!set_log_end}). *)

val flush_page : t -> int -> unit
val flush_all : t -> int
(** Write every dirty frame in ascending page-id order, then sync the store
    (also when no frame was dirty: it makes durable what evictions and
    {!flush_page} wrote without a sync), and return how many pages were
    written. WAL-before-page holds: the flush hook runs before every write.
    A checkpoint and the commit of a catalog change run it. *)

val dirty_count : t -> int
(** Number of dirty resident frames (the [dmx_bufpool] checkpoint gauge). *)

val drop_cache : t -> unit
(** Forget all unpinned frames without writing them — simulates losing
    volatile memory in a crash (used by recovery tests). Raises [Failure] if
    any frame is still pinned. *)

val cached_page_ids : t -> int list
(** Page ids currently resident, ascending (eviction tests). *)

val frames : t -> (int * int * bool * bool * int64) list
(** [(page_id, pin_count, dirty, ref_bit, page_lsn)] for every resident
    frame, ascending by page id — the [dmx_bufpool] system-view snapshot. *)

val pinned_pages : t -> (int * int) list
(** [(page_id, pin_count)] of every currently pinned frame, ascending by page
    id. Pins are operation-scoped, so the list must be empty at transaction
    boundaries — the runtime sanitizer ([Invariant]) checks exactly that. *)
