(** Predicate and scalar expression trees.

    This is the representation accepted by the common-services predicate
    evaluator (paper p. 223): filter predicates passed to storage-method and
    access-path scans, integrity-constraint predicates, and query-execution
    predicates all share it.

    Expressions refer to record fields positionally ([Field]); the evaluator
    can use "any combination of fields from a record as operands" and "both
    constant and variable data" ([Const] and [Param]). User functions are
    called through the {!Func} registry. *)

open Dmx_value

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div | Mod

type t =
  | Const of Value.t
  | Field of int  (** field position in the current record *)
  | Param of int  (** bind variable, supplied at evaluation time *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * t * t
  | Is_null of t
  | Arith of arith * t * t
  | Neg of t
  | Like of t * string  (** SQL LIKE with [%] and [_] wildcards *)
  | In_list of t * Value.t list
  | Between of t * t * t  (** [Between (e, lo, hi)] *)
  | Call of string * t list
      (** user/builtin function from the {!Func} registry; access paths may
          recognise specific calls (e.g. the R-tree recognises [encloses]) *)

(** Convenience constructors. *)

val tru : t
val fals : t
val cint : int -> t
val cstr : string -> t
val cfloat : float -> t
val field : int -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val not_ : t -> t
val eq : t -> t -> t
val ne : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t

val fields_used : t -> int list
(** Sorted, deduplicated list of field positions the expression reads. *)

val max_param : t -> int
(** Highest [Param] index used, or [-1] if none. *)

val subst_params : Dmx_value.Value.t array -> t -> t
(** Replace each [Param i] with [Const params.(i)]; parameters beyond the
    array are left in place. Used when binding a saved plan's predicate to
    execution-time parameter values. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val enc : Codec.Enc.t -> t -> unit
val dec : Codec.Dec.t -> t
val encode : t -> bytes
val decode : bytes -> t
