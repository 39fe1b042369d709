(** The common descriptor-management facility.

    "Instead of requiring each relation storage or access path to store and
    access its own descriptor data, the common system will maintain and manage
    relation descriptors. Each extension supplies and interprets the contents
    of its own descriptor data, but the common system manages the composite
    relation descriptor" (paper p. 224).

    Catalog mutations are undoable: the DDL layer logs each one as an [Ext]
    record with [Catalog] source using {!encode_op}, and the recovery driver
    calls {!undo_op}. Undo is testable (tolerates never-applied /
    already-undone states) per the recovery policy in DESIGN.md.

    Persistence is a snapshot file written by {!save}. A descriptor changes
    only through a logged operation (DDL), so the snapshot is saved only
    at the commit or abort of a transaction that logged one, after
    restart's undo of a loser that did, and on clean shutdown — never at
    the commit of DML. *)

open Dmx_value

type t

val create : ?path:string -> unit -> t
(** In-memory catalog; [path] enables {!save}/{!load}. *)

val load : path:string -> t
(** Load a snapshot if the file exists, else an empty catalog bound to it.
    Raises [Failure], naming the path, on a file that is not a catalog or
    was written by an older version (magic [DMXCATLG] or [DMXCATL2]),
    leaving it alone. *)

val save : t -> unit
(** Write the snapshot durably ({!Dmx_wal.Durable.replace}): the file's
    fsync counts in the metrics counter [catalog.fsyncs], the directory's
    in [durable.dir_fsyncs], and each snapshot written in
    [catalog.snapshots]. A catalog without a path writes nothing. *)

val dirty : t -> bool
(** Whether the catalog changed since the last snapshot. *)

val next_rel_id : t -> int
(** Peek at the id the next {!add_relation} will use. *)

val add_relation :
  t -> rel_name:string -> schema:Schema.t -> smethod_id:int ->
  smethod_desc:string -> (Descriptor.t, string) result
(** Fails on duplicate names. *)

val remove_relation : t -> int -> (Descriptor.t, string) result
val find : t -> string -> Descriptor.t option
val find_by_id : t -> int -> Descriptor.t option
val relations : t -> Descriptor.t list

val set_attachment_slot : t -> rel_id:int -> slot:int -> string option -> unit
val set_smethod_desc : t -> rel_id:int -> string -> unit

(** Logged catalog operations. *)
type op =
  | Create_rel of Descriptor.t
  | Drop_rel of Descriptor.t
  | Set_attachment of {
      rel_id : int;
      slot : int;
      old_desc : string option;
      new_desc : string option;
    }
  | Set_smethod of { rel_id : int; old_desc : string; new_desc : string }
      (** a storage method's own descriptor change at DDL (sealing a
          [readonly] relation) *)

val encode_op : op -> string
val decode_op : string -> op

val undo_op : t -> op -> unit
(** Apply the inverse of [op], testably. *)
