(** Relation schemas.

    A schema describes the user-visible fields of a relation. Storage methods
    receive the schema at relation creation and are free to choose any
    physical representation for it. *)

type column = {
  name : string;
  ty : Value.ty;
  nullable : bool;
}

type t

val make : column list -> (t, string) result
(** [make cols] checks that column names are non-empty and unique
    (case-insensitively). *)

val make_exn : column list -> t

val column : ?nullable:bool -> string -> Value.ty -> column
(** [column name ty] is a column; [nullable] defaults to [true]. *)

val arity : t -> int
val columns : t -> column list
val col : t -> int -> column
val field_index : t -> string -> int option
val field_name : t -> int -> string
val field_ty : t -> int -> Value.ty

val validate_record : t -> Value.t array -> (unit, string) result
(** Arity, type and NOT NULL checking for a record against the schema. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
