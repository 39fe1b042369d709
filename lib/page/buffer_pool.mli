(** Buffer pool.

    Fixed-capacity page cache over a {!Disk} store with pin/unpin,
    second-chance clock eviction of unpinned frames (O(1) amortized — the
    hand advances over a frame array; the hashtable is only the page-id →
    slot map), and a write-ahead-log hook: before a dirty frame reaches the
    backing store, the registered hook is called with the frame's latest LSN
    so the log can be forced first.

    The paper expects filter predicates to be evaluated "while the field
    values from the relation storage or access path are still in the buffer
    pool" — storage methods therefore work directly on pinned frame bytes.
    A scan over more pages than the pool holds is the exception: caching its
    pages would only evict everything else, so it reads the pages it does
    not find resident into one buffer of its own ({!scan_reader}). *)

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

type reader
(** A sequential reader's view of the pool: one scan over a list of pages. *)

val scan_reader : ?txid:int -> ?poison:bool -> t -> pages:int -> reader
(** A reader for a scan that lists [pages] pages. The pool decides from that
    count whether the scan caches. When [pages] is at most {!capacity}, the
    scan reads through {!pin} like any caller. When it is more, the scan
    would evict the whole pool and still miss every page on its next pass,
    so it caches nothing: a page already in a frame (possibly dirty, so
    newer than the store) is read in that frame under a pin, and any other
    page is read with {!Disk.read_into} into one buffer the reader owns,
    which installs nothing and evicts nothing. Such a read counts one
    [pool_misses] and one [page_reads], as a miss does, and under
    [Dmx_obs.Emit] opens the same [bp.miss] span with the attribute
    [cached = false]. [txid] is charged as by {!pin}. With [poison] (the
    runtime sanitizer sets it) the reader's buffer is filled with a fixed
    pattern after each page, so a value that still views a page's bytes
    after its callback reads garbage. *)

val with_scan_page : reader -> int -> (bytes -> 'a) -> 'a
(** [with_scan_page r id f] applies [f] to the bytes of page [id], read as
    {!scan_reader} says. The bytes are read-only and must not outlive [f]:
    they are a frame's, unpinned when [f] returns, or the reader's buffer,
    which the next page overwrites. *)

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
