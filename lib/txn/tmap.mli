(** Heterogeneous extension state.

    Extensions attach private state to a transaction ({!Txn.attr}: open
    scans, pending work) or to a database ({!Txn_mgr.attr}: main-memory
    stores, foreign servers) under typed keys, without the common system
    knowing the types — the in-memory analogue of the paper's rule that each
    extension interprets only its own descriptor data. *)

type t

type 'a key

val new_key : string -> 'a key
(** A key distinct from every other, whatever its name. *)

val empty : t
val add : 'a key -> 'a -> t -> t
val find : 'a key -> t -> 'a option
val remove : 'a key -> t -> t
val mem : 'a key -> t -> bool
