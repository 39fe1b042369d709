type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string

type key_bound = Incl of t array | Excl of t array | Unbounded
type ty = Tbool | Tint | Tfloat | Tstring

let type_of = function
  | Null -> None
  | Bool _ -> Some Tbool
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | String _ -> Some Tstring

let has_type ty v = match type_of v with None -> true | Some t -> t = ty

(* Rank used to order values of distinct types; NULL lowest. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | String _ -> 4

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int64.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Bool b -> if b then 1 else 2
  | Int i -> Hashtbl.hash i
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s

let int n = Int (Int64.of_int n)
let to_int = function Int i -> Some i | _ -> None
let to_float = function Float f -> Some f | Int i -> Some (Int64.to_float i) | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

let pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int64 ppf i
  | Float f -> Fmt.float ppf f
  | String s -> Fmt.pf ppf "%S" s

let to_string v = Fmt.str "%a" pp v

let pp_ty ppf ty =
  Fmt.string ppf
    (match ty with
    | Tbool -> "BOOL"
    | Tint -> "INT"
    | Tfloat -> "FLOAT"
    | Tstring -> "STRING")

let ty_to_string ty = Fmt.str "%a" pp_ty ty

let ty_of_string s =
  match String.uppercase_ascii s with
  | "BOOL" | "BOOLEAN" -> Some Tbool
  | "INT" | "INTEGER" -> Some Tint
  | "FLOAT" | "DOUBLE" | "REAL" -> Some Tfloat
  | "STRING" | "TEXT" | "VARCHAR" -> Some Tstring
  | _ -> None
