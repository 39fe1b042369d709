(** B-tree index attachment.

    The paper's running example (p. 223): "After a record is inserted into a
    relation having B-tree indexes defined on it, the B-tree attached
    procedure for insert will be invoked ... For each B-tree index defined on
    the relation being modified, the B-tree insert procedure will form an
    index key by projecting fields from the inserted record, and then insert
    the index key plus tuple identifier or record key into the B-tree index."

    Instances are declared with DDL attributes [fields] (comma-separated
    column list) and optional [unique]; a unique instance vetoes modifications
    that would duplicate an index key. Update detects untouched index fields
    and skips the instance. Index entry keys are (field values, record key),
    so non-unique duplicates coexist; the record key is read back from the
    key, and the payload is empty. *)

include Dmx_core.Intf.ATTACHMENT

val register : unit -> int
val id : unit -> int

val instance_names : Dmx_catalog.Descriptor.t -> string list
val instance_number :
  Dmx_catalog.Descriptor.t -> name:string -> int option
(** Resolve an index name to its instance number ("B-tree number 3"). *)
