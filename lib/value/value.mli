(** Field values.

    Every storage method and attachment exchanges records built from this
    common value representation — the paper's "common record and field value
    representations needed to allow communication with the generic
    operations". *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string

type key_bound = Incl of t array | Excl of t array | Unbounded
(** A bound on a composite key: B-tree cursors and key-sequential scans take
    one at each end. *)

(** Value types, used in schemas and for checking. *)
type ty = Tbool | Tint | Tfloat | Tstring

val type_of : t -> ty option
(** [type_of v] is the type of [v], or [None] for [Null]. *)

val has_type : ty -> t -> bool
(** [has_type ty v] holds when [v] is [Null] or has type [ty]; NULL is a
    member of every domain. *)

val rank : t -> int
(** The position of a value's type in {!compare}'s order: [Null] 0, then
    bool, int, float and string; [Codec] tags values with it. *)

val compare : t -> t -> int
(** Total order used by ordered access paths and record keys. [Null] sorts
    before every non-null value; values of distinct types order by type.
    SQL comparison semantics (NULL = unknown) live in {!Dmx_expr.Eval}, not
    here: access paths need a total order. *)

val equal : t -> t -> bool

val hash : t -> int
(** Stable hash for hash-based access paths. *)

val int : int -> t
(** [int n] is [Int (Int64.of_int n)]. *)

val to_int : t -> int64 option
val to_float : t -> float option
val to_string_opt : t -> string option

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val pp_ty : Format.formatter -> ty -> unit
val ty_to_string : ty -> string
val ty_of_string : string -> ty option
