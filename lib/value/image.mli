(** Change images: the one logged-change rule of every page-writing
    extension.

    A change is an image of one target — a B-tree key, a heap RID, a
    memory sequence number, an index entry — before and after it, each side
    [None] when the target is absent. The extension encodes the image and
    logs it under its own source before the write that applies it, so a
    page never reaches disk ahead of the undo information for what it
    holds. {!undo} reverses an image only when the target holds exactly its
    [after] side: an image whose change never landed, or was already undone,
    is left alone, so undo is safe to repeat.

    That state check is sound only while the logging transaction owns the
    target until it ends: every target carries a key the transaction holds
    an exclusive lock on (DESIGN.md §6). *)

type 'a t = { target : 'a; before : string option; after : string option }

val encode : (Codec.Enc.t -> 'a -> unit) -> 'a t -> string
(** A presence-flags byte, the present sides (length-prefixed), then the
    target as the record's tail. The flags byte is below 4, so an
    extension can log records of its own beside its images under one
    source by starting them with a higher byte. *)

val decode : (Codec.Dec.t -> 'a) -> string -> 'a t

val change :
  (Codec.Enc.t -> 'a -> unit) -> log:(string -> unit) ->
  read:(unit -> string option) -> write:(string option -> unit) -> 'a ->
  (string option -> string option) -> string option
(** [change enc ~log ~read ~write target f] is the read-modify-write every
    image user performs: [f] maps the side the target holds ([read ()]) to
    the new one. When they differ, the encoded image goes to [log] and then
    [write] applies the new side; otherwise nothing is logged or written.
    Returns the side held before. *)

val undo : set:((string option -> string option) -> string option) -> 'a t -> bool
(** [undo ~set img] runs the extension's read-modify-write of the target
    ([set f] applies [f] to the held side and returns it) and restores
    [before] only when the target holds exactly [after]. Whether it
    reversed the change. *)

val redo : set:((string option -> string option) -> string option) -> 'a t -> bool
(** The undo run forward: [redo ~set img] applies [after] only when the
    target holds exactly [before]. A target whose state is any state of its
    logged history reaches the last one when its images are redone in log
    order. On a page newer than the redo start the state check can pass
    where the page no longer has room for [after] (a later change took the
    bytes); the extension must not apply such an image, and when an
    earlier image may already have walked the target back, it cannot
    converge without knowing the page's age (heap redo stops there).
    Whether it applied the change. *)

val count_delta : 'a t -> int
(** What reversing the image does to the number of present targets: [-1]
    for an insert ([before] absent), [+1] for a delete ([after] absent),
    [0] otherwise — storage methods keep their record counts with it. *)

val presence : bool -> string option
(** The side of a presence image (an index entry is there or not):
    [Some ""] or [None]. *)
