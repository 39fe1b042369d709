(** The write-once ("optical disk publishing") storage method.

    The paper motivates "special facilities to support (read-only) optical
    disk database publishing applications" (p. 220). Records may be appended
    while the relation is being mastered; {!seal} finalises it, after which
    every modification is refused at the generic interface with [Read_only] —
    simulating the write-once medium. Updates and deletes are refused even
    before sealing (the medium cannot rewrite). *)

include Dmx_core.Intf.STORAGE_METHOD
(** Records live in heap pages listed by a heap directory
    ({!Heap.log_new_page}), whose head the descriptor starts with, so the
    heap's scan, count, estimate, undo and redo serve as they are. *)

val register : unit -> int
val id : unit -> int

val seal : Dmx_core.Ctx.t -> Dmx_catalog.Descriptor.t -> unit
(** Extension-specific operation: finalise the published relation. The
    descriptor change is logged as a catalog change ([Set_smethod]), so it
    is DDL: the transaction's commit saves the catalog snapshot, and its
    abort undoes the seal. *)

val is_sealed : Dmx_catalog.Descriptor.t -> bool
