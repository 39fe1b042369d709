(** Hash-table access path attachment.

    Extendible hashing over [buckets] logical buckets (DDL attribute, 1 to
    4096, default 16). Directory pages map each logical bucket to a bucket
    page; logical buckets share a page until it fills, and then the page
    splits its run of buckets in two, so the index takes pages in
    proportion to its entries. A split is logged with the entries it moves
    (or, in undo and redo, synced in order), so a crash that lands any
    subset of its pages loses none. A full page that covers one logical bucket
    chains an overflow page. Maps exact keys over the declared [fields] to
    record keys: a probe pins one directory page, then the bucket's chain,
    and compares keys in the pinned frame. Offers no key-sequential access
    (the architecture makes scans optional for access paths), so the
    planner only considers it for full equality matches. Optional
    [unique]. *)

include Dmx_core.Intf.ATTACHMENT

val register : unit -> int
val id : unit -> int

val bucket_of_hash : int -> int -> int
(** [bucket_of_hash h n] is the logical bucket, in [0 .. n-1], of a key
    whose hash is [h] (any int, [min_int] included). *)

val check_invariants :
  Dmx_core.Ctx.t -> Dmx_catalog.Descriptor.t -> (int, string) result
(** Check the page layout of every instance on the relation: the directory
    names each bucket page for one contiguous run of logical buckets, only
    a page whose run is one bucket has an overflow chain, no page is
    reached twice, each entry lies on the chain of its bucket, and each
    header's entry count and used bytes agree with the entries. [Ok n]: the
    layout holds over [n] bucket pages, overflow pages included. *)
