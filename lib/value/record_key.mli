(** Record keys.

    "The definition and interpretation of record keys is controlled by the
    storage method implementation. For example, record keys may be record
    addresses or may be composed from some subset of the fields of the
    records." (paper, p. 221)

    [Rid] is the record-address form used by the heap and similar methods;
    [Fields] is the field-composed form used by key-organised storage such as
    the B-tree storage method. Access paths map access-path keys to record
    keys of either form. *)

type t =
  | Rid of { page : int; slot : int }
  | Fields of Value.t array

val rid : page:int -> slot:int -> t
val fields : Value.t array -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val encode : t -> bytes
val decode : bytes -> t
val enc : Codec.Enc.t -> t -> unit
val dec : Codec.Dec.t -> t

val end_at : string -> int -> int
(** [end_at s p] is the offset just past the record key encoded at [p]
    (see {!Codec.record_end}). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
