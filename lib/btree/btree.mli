(** Page-based B+tree.

    The shared ordered access structure: the B-tree storage method stores
    whole records in the leaves, and the B-tree index attachment stores
    (index key, record key) mappings. Keys are value arrays under
    lexicographic {!Dmx_value.Value.compare}; payloads are opaque strings.
    Keys are unique — callers needing duplicates append a discriminator
    (index attachments append the record key).

    The root page id is fixed for the life of the tree (root splits push
    contents down), so a descriptor holding the root never goes stale.

    Deletion is lazy (no rebalancing): leaves may underflow and are skipped by
    scans; this favours the paper's scan-position semantics, since cursors are
    keyed by the last key returned ("on" an item) and re-descend per step —
    a cursor therefore survives splits, deletes at the current position, and
    partial-rollback restores, returning exactly the next item after its
    position (paper p. 223). *)

open Dmx_value

type t

(** {2 Key order} *)

val compare_full : Value.t array -> Value.t array -> int
(** Lexicographic {!Dmx_value.Value.compare} over the values, then the
    shorter key first: the order of stored keys. *)

val compare_prefix : Value.t array -> Value.t array -> int
(** As {!compare_full} up to the shorter length, where keys compare equal:
    the order cursor bounds use. *)

val compare_encoded :
  prefix:bool -> Dmx_value.Codec.Dec.t -> Value.t array -> int
(** [compare_encoded ~prefix d key] has the sign of {!compare_full}
    ({!compare_prefix} when [prefix]) of the key record encoded at [d]
    against [key], and advances past the record without decoding it: reads
    search nodes in the pinned frame. *)

val create : Dmx_page.Buffer_pool.t -> t
(** Allocates an empty tree; get its root with {!root}. *)

val open_tree : Dmx_page.Buffer_pool.t -> root:int -> t
val root : t -> int

val advisory_count : t -> int
(** A count the tree's owner keeps with it ([btree_org]'s record count),
    held in the root page's last bytes, which no node reaches. 0 in a
    fresh tree. *)

val add_advisory_count : t -> int -> unit
(** Move {!advisory_count} by a delta (floored at 0), unlogged: exact
    within a process, as last written across a crash. *)

(** {2 Logged changes}

    Every change to a tree is one {!Dmx_value.Image}: the target is the
    tree's root and the key, the sides are the payload before and after
    ([None] = absent). The tree encodes the image and hands it to the
    caller's [log] before any page of the tree is written or allocated, so
    a page never reaches disk ahead of the undo information for what it
    holds. The caller appends it to the recovery log under its own source;
    {!undo} reverses it. *)

type change = (int * Value.t array) Dmx_value.Image.t
(** Target = (root, key). *)

val set :
  t -> key:Value.t array -> log:(string -> unit) ->
  (string option -> string option) -> string option
(** [set t ~key ~log f] changes one key: one descent finds the payload held
    under [key] ([before]), [f before] gives the new one ([None] deletes).
    A change is logged, then its leaf written (split when it overflows);
    an unchanged payload logs and writes nothing. Returns [before]. [set]
    and {!insert_batch} are one writer: [set] is a run of one edit. *)

val if_absent : string -> string option -> string option
(** [set]'s function for insert-if-absent: keeps a held payload, else adds
    [payload]. *)

val prefix_present : t -> Value.t array -> bool
(** Whether some key starts with [prefix] (a unique index's duplicate
    probe). *)

val insert_batch :
  ?unique_prefix:int -> t -> log:(string list -> unit) ->
  (Value.t array * string) array -> (unit, int) result
(** Sorted-batch insert, each entry by {!if_absent}: [entries] must be
    ascending in key order. Each run of entries landing in one leaf costs
    one descent and one decode; the run is merged into the leaf in one
    pass, [log] receives the changes it applies, and only then is the leaf
    written, once. A run ends at the leaf's key window and before an entry
    that would overflow the leaf; an entry that overflows it alone splits
    it, and the rightmost leaf then splits at its edge. [unique_prefix:p]
    vetoes an entry whose first [p] key values match an existing entry or
    an earlier batch entry, decided against the entry's neighbours in the
    merge (a separator sharing the prefix at the leaf's edge adds a
    {!prefix_present} probe; a key of at most [p] values, in a tree whose
    keys have one arity, is matched only by itself): the batch halts with
    [Error j] — entries
    before index [j] are applied, [j] and later are not. Without it, an
    entry whose full key is present (or repeats an earlier batch entry) is
    skipped, unlogged, and the result is [Ok ()]. *)

val build : t -> (Value.t array * string) array -> unit
(** [build t entries] fills a freshly created, empty tree bottom-up, the
    way an instance is built over a relation's existing records: leaves
    packed in key order up to the page capacity, then each internal level
    from the first key of each child, the top node in the root page. Each
    page is written once; nothing is logged. [entries] must be strictly
    ascending by {!compare_full}. Raises [Invalid_argument] on unsorted or
    repeated keys, or when the tree holds an entry. *)

val undo : Dmx_page.Buffer_pool.t -> string -> change option
(** Reverse a logged change by {!Dmx_value.Image.undo}. A no-op when the
    root page is not live (a tree whose creation never reached the store).
    Returns the change when it was reversed. *)

val redo : Dmx_page.Buffer_pool.t -> string -> bool
(** Repeat a logged change by {!Dmx_value.Image.redo}: one {!set} over the
    tree as the store holds it, so a lost split is made again on fresh
    pages. Whether it applied the change. *)

val find : t -> key:Value.t array -> string option
val count : t -> int
(** Number of entries: the sum of the leaves' entry counts, read from each
    leaf's header along the chain. *)

val height : t -> int

type bound = Value.key_bound =
  | Incl of Value.t array
  | Excl of Value.t array
  | Unbounded

type cursor

val cursor : ?lo:bound -> ?hi:bound -> t -> cursor
(** Ascending scan of keys in [(lo, hi)]. Bounds compare lexicographically
    with prefix semantics: a bound that is a strict prefix of a stored key
    compares by the prefix ([Incl [|x|]] admits every key starting with x). *)

val next : cursor -> (Value.t array * string) option

val next_run : cursor -> (Value.t array * string) array option
(** Deliver every remaining in-window entry of the next leaf as one run,
    advancing the cursor onto the run's last key — the vectorized step the
    [btree_org] batch scan uses, one run per leaf. Mixing
    {!next} and {!next_run} on one cursor is allowed; both respect the same
    position. *)

val position : cursor -> Value.t array option
(** The key the cursor is "on" (last returned), for savepoint capture. *)

val seek : cursor -> Value.t array option -> unit
(** Restore a captured position; [None] rewinds to the start bound. *)

val iter : t -> (Value.t array -> string -> unit) -> unit

val check_invariants : t -> (unit, string) result
(** Structural check used by tests: sorted leaves, consistent separators,
    leaf chaining. *)

(** {2 Node pages}

    A node page holds a header (entry count, tag, end of the content area,
    and a link: a leaf's right neighbour or an internal node's leftmost
    child), then one 2-byte entry offset per entry in key order, then the
    entries in key order; the page's last 8 bytes are no node's. Searches
    binary-search the offsets in the pinned frame. Reading a page of
    another format (an old-format or blank node, a bad tag) or with an
    offset or content end outside the page raises [Failure] naming the
    page. *)

type node =
  | Leaf of { entries : (Value.t array * string) list; next : int }
  | Internal of { seps : Value.t array list; children : int list }
      (** [|children| = |seps| + 1]; child [i] holds keys below [seps.(i)]
          and at or above [seps.(i-1)]. *)

val decode_page : page_id:int -> bytes -> node
(** The node a page image holds ([page_id] names it in errors). *)

val encode_page : bytes -> node -> unit
(** Lay a node over a page image, all but its last 8 bytes, zeroing the
    free space after its entries. Raises [Failure] when the node does not
    fit. *)

val window : t -> Value.t array -> Value.t array option * Value.t array option
(** The key window of the leaf covering a key: the nearest ancestor
    separators below (inclusive) and above (exclusive), [None] at the
    tree's edges. *)
