(** Extension attribute/value lists.

    "The data definition language of the DBMS has been extended to allow
    specification of a storage method or attachment type and an
    attribute/value list for extension-specific parameters" (paper p. 222).
    The common DDL ([Ddl]) validates each list against the extension's
    [attr_specs] before the extension sees it; extensions interpret the
    lists. *)

type t = (string * string) list

val empty : t
val find : t -> string -> string option
val get_string : ?default:string -> t -> string -> string option
val get_int : t -> string -> (int option, string) result
val get_bool : t -> string -> (bool option, string) result

(** Declarative validation spec for an extension's attributes. *)
type attr_ty = A_int | A_bool | A_string

type spec = {
  attr_name : string;
  attr_ty : attr_ty;
  required : bool;
}

val spec : ?required:bool -> string -> attr_ty -> spec

val validate : spec list -> t -> (unit, string) result
(** Checks unknown keys, duplicates, missing required attributes and value
    syntax. *)

val enc : Dmx_value.Codec.Enc.t -> t -> unit
val dec : Dmx_value.Codec.Dec.t -> t
val pp : Format.formatter -> t -> unit
