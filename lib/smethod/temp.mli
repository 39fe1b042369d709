(** The temporary-relation storage method.

    "Examples of storage methods include recoverable and temporary relations"
    (paper p. 221); the base system's temporary method is the paper's example
    of vector indexing. It is {!Memory}'s store under its own name, *unlogged*:
    operations write no log records, so aborting a transaction leaves its
    temporary writes in place (the SQL temp-table convention) and they never
    participate in recovery. *)

include Memory.S
