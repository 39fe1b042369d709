(** The main-memory storage method.

    The paper motivates "main memory data storage methods for selected high
    traffic relations" (p. 220). Records live in a table keyed by a sequence
    number; no pages, no I/O. The tables are the database's
    ({!Dmx_txn.Txn_mgr.attr}): another database's relation with the same id
    is another table. Operations are logged, so veto handling, savepoints
    and in-session abort work exactly as for durable methods, but contents
    do not survive a restart, even within one process — restart undo of a
    loser transaction finds no state and is a no-op (testable undo). *)

module type S = sig
  include Dmx_core.Intf.STORAGE_METHOD

  val register : unit -> int
  val id : unit -> int
end

(** The in-process store under another storage-method [name]. A method that
    is not [logged] writes no log records, so an abort leaves its writes in
    place and it never takes part in recovery ({!Temp}). *)
module Make (_ : sig
  val name : string
  val logged : bool
end) : S

include S
