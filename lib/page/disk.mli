(** Page-addressed backing store.

    Two backends share one interface: a file-backed store (durable; used by
    recoverable storage methods and for restart-recovery tests) and a
    memory-backed store (used by temporary relations, tests and benches).
    All reads/writes are whole pages and are counted in {!Io_stats}. *)

type t

val default_page_size : int
(** 4096 bytes. *)

(** A pluggable backend: the vector of operations a custom page store must
    implement. Page ids are 1-based and dense; [o_alloc] returns the new
    page's id and is responsible for zero-filling it. [o_durable] says
    whether the store models stable storage (the fault-injection store used
    by the chaos harness says [true]); nothing reads it yet. *)
type ops = {
  o_page_count : unit -> int;
  o_alloc : unit -> int;
  o_read : int -> bytes;
  o_write : int -> bytes -> unit;
  o_sync : unit -> unit;
  o_close : unit -> unit;
  o_durable : bool;
}

val in_memory : ?page_size:int -> unit -> t

val custom : ?page_size:int -> ops -> t
(** A store over a caller-supplied backend. I/O accounting ({!stats}) and
    open/size checks stay in this module; everything else delegates. *)

val open_file : ?page_size:int -> string -> t
(** Opens (creating if needed) a file-backed store. Page 0 is reserved for the
    store header (page size, page count); user pages start at 1. An existing
    file must have a matching page size. The store remembers the file offset
    its last transfer ended at: a read or write that starts there issues no
    [lseek], and the metrics counter [disk.seeks] counts those that do. The
    metrics counter [disk.read_calls] counts its [read] system calls. *)

val page_size : t -> int
val page_count : t -> int
(** Number of allocated user pages. *)

val stats : t -> Io_stats.t

val alloc : t -> int
(** Allocate a fresh zeroed page and return its id (>= 1). *)

val read : t -> int -> bytes
(** [read t id] is a fresh copy of page [id]. Raises [Invalid_argument] for an
    unallocated id. A file-backed store reads ahead: a read of page [id]
    that directly follows a read of page [id - 1] fetches up to 64 KB of
    pages from [id] on (cut at {!page_count}) with one [read] call into a
    window of the store, and later reads of pages in that window are served
    from it. Any other read outside the window fetches its one page. Every {!write} and
    {!alloc} of a page in the window updates it, and {!close} drops it, so
    a read always returns what the store last wrote. {!stats} counts one
    page read per call of [read] either way. [read t id] is {!read_into}
    of a fresh page buffer. *)

val read_into : t -> int -> bytes -> unit
(** [read_into t id buf] fills [buf], which must be exactly one page, with
    page [id]: the read path of {!read}, read-ahead window included, without
    allocating. A buffer the caller keeps from page to page makes a
    sequential reader's misses allocate nothing. Counts one page read. *)

val write : t -> int -> bytes -> unit
(** [write t id data] stores the page; [data] must be exactly one page. *)

val sync : t -> unit
(** Force pages to stable storage (fsync for files; no-op in memory). *)

val close : t -> unit
