(** The main-memory storage method.

    The paper motivates "main memory data storage methods for selected high
    traffic relations" (p. 220). Records live in an in-process table keyed by
    a sequence number; no pages, no I/O. Operations are logged, so veto
    handling, savepoints and in-session abort work exactly as for durable
    methods, but contents do not survive a restart — restart undo of a loser
    transaction finds no state and is a no-op (testable undo). *)

module type S = sig
  include Dmx_core.Intf.STORAGE_METHOD

  val register : unit -> int
  val id : unit -> int

  val reset_all : unit -> unit
  (** Drop every relation's contents (simulates restart in tests). *)
end

(** The in-process store under another storage-method [name]. A method that
    is not [logged] writes no log records, so an abort leaves its writes in
    place and it never takes part in recovery ({!Temp}). *)
module Make (_ : sig
  val name : string
  val logged : bool
end) : S

include S
