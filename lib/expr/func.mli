(** User/builtin function registry for the predicate evaluator.

    The paper requires the common-services predicate evaluator to "be able to
    call functions that are passed to it". Functions are registered by name at
    the factory (program start) and invoked by [Expr.Call] nodes. A function
    receives evaluated argument values and returns a value; SQL convention
    applies: unless it declares [null_call], a function is not invoked on NULL
    arguments and the result is NULL. *)

open Dmx_value

type impl = Value.t list -> Value.t

val register : ?null_call:bool -> string -> impl -> unit
(** [register name f] adds [f] under [name] (case-insensitive). Raises
    [Invalid_argument] if [name] is already registered. [null_call] (default
    [false]) means the function handles NULL arguments itself. *)

val find : string -> (impl * bool) option
(** [find name] is the implementation and its [null_call] flag. *)

val names : unit -> string list

(** Builtins registered at load time: [abs], [lower], [upper], [length],
    [substr], [mod], and the spatial family [encloses], [overlaps],
    [contains_point], [area] over (xlo, ylo, xhi, yhi) rectangles. *)
