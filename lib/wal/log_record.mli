(** Log record types.

    The common recovery log holds transaction control records plus opaque
    [Ext] payloads written by storage-method, attachment and catalog
    implementations. The common system never interprets [Ext] data; during
    rollback, abort and restart it *drives* the owning extension's undo entry
    point with the payload (paper p. 223: "the common recovery log is used to
    drive the storage method and attachment implementations to undo the
    partial effects"). Only what rollback and restart read is logged: a
    savepoint is an in-memory mark, not a record, and a transaction enters
    the log with its first change. *)

type lsn = int64

val no_lsn : lsn

type txid = int

(** Who wrote an [Ext] record — determines which procedure vector the undo
    driver dispatches through. *)
type source =
  | Smethod of int  (** storage-method id *)
  | Attachment of int  (** attachment type id *)
  | Catalog  (** common catalog facility *)

type kind =
  | Commit
  | Abort  (** rollback completed *)
  | Ext of { source : source; rel_id : int; data : string }
  | Clr of { undone : lsn }
      (** compensation: the record at [undone] has been undone *)
  | Checkpoint of { active : txid list; next_txid : txid }
      (** every change logged before this record is in the store; [active]
          lists the running transactions that have logged a record, which
          restart's analysis counts as started although their first record
          precedes this one; [next_txid] is the id the next transaction
          would take, so ids stay unique once truncation drops every
          record that carried them *)

type t = { lsn : lsn; txid : txid; kind : kind }

val encode : Dmx_value.Codec.Enc.t -> txid -> kind -> unit

exception Malformed of string
(** A payload names a kind or source tag no record has. *)

val decode : Dmx_value.Codec.Dec.t -> txid * kind
(** Raises {!Malformed} on an unknown tag, and [Failure] (from the codec) on
    a payload that ends early. *)

val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> t -> unit
