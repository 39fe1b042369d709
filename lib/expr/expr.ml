open Dmx_value

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div | Mod

type t =
  | Const of Value.t
  | Field of int
  | Param of int
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * t * t
  | Is_null of t
  | Arith of arith * t * t
  | Neg of t
  | Like of t * string
  | In_list of t * Value.t list
  | Between of t * t * t
  | Call of string * t list

let tru = Const (Bool true)
let fals = Const (Bool false)
let cint n = Const (Value.int n)
let cstr s = Const (String s)
let cfloat f = Const (Float f)
let field i = Field i
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
let not_ a = Not a
let eq a b = Cmp (Eq, a, b)
let ne a b = Cmp (Ne, a, b)
let lt a b = Cmp (Lt, a, b)
let le a b = Cmp (Le, a, b)
let gt a b = Cmp (Gt, a, b)
let ge a b = Cmp (Ge, a, b)

let rec fold_subexprs f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Field _ | Param _ -> acc
  | Not a | Is_null a | Neg a | Like (a, _) | In_list (a, _) ->
    fold_subexprs f acc a
  | And (a, b) | Or (a, b) | Cmp (_, a, b) | Arith (_, a, b) ->
    fold_subexprs f (fold_subexprs f acc a) b
  | Between (a, b, c) ->
    fold_subexprs f (fold_subexprs f (fold_subexprs f acc a) b) c
  | Call (_, args) -> List.fold_left (fold_subexprs f) acc args

let fields_used e =
  let fs =
    fold_subexprs
      (fun acc e -> match e with Field i -> i :: acc | _ -> acc)
      [] e
  in
  List.sort_uniq Int.compare fs

let max_param e =
  fold_subexprs
    (fun acc e -> match e with Param i -> max acc i | _ -> acc)
    (-1) e

(* Note: [&&] is shadowed by the expression-building operator above. *)
let rec subst_params params = function
  | Param i when i >= 0 -> if i < Array.length params then Const params.(i) else Param i
  | (Const _ | Field _ | Param _) as e -> e
  | Not a -> Not (subst_params params a)
  | And (a, b) -> And (subst_params params a, subst_params params b)
  | Or (a, b) -> Or (subst_params params a, subst_params params b)
  | Cmp (c, a, b) -> Cmp (c, subst_params params a, subst_params params b)
  | Is_null a -> Is_null (subst_params params a)
  | Arith (op, a, b) -> Arith (op, subst_params params a, subst_params params b)
  | Neg a -> Neg (subst_params params a)
  | Like (a, p) -> Like (subst_params params a, p)
  | In_list (a, vs) -> In_list (subst_params params a, vs)
  | Between (a, b, c) ->
    Between (subst_params params a, subst_params params b, subst_params params c)
  | Call (name, args) -> Call (name, List.map (subst_params params) args)

let equal = Stdlib.( = )

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let arith_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | Field i -> Fmt.pf ppf "$%d" i
  | Param i -> Fmt.pf ppf "?%d" i
  | Not a -> Fmt.pf ppf "NOT (%a)" pp a
  | And (a, b) -> Fmt.pf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a OR %a)" pp a pp b
  | Cmp (c, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (cmp_to_string c) pp b
  | Is_null a -> Fmt.pf ppf "(%a IS NULL)" pp a
  | Arith (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (arith_to_string op) pp b
  | Neg a -> Fmt.pf ppf "(-%a)" pp a
  | Like (a, p) -> Fmt.pf ppf "(%a LIKE %S)" pp a p
  | In_list (a, vs) ->
    Fmt.pf ppf "(%a IN (%a))" pp a Fmt.(list ~sep:(any ", ") Value.pp) vs
  | Between (a, b, c) -> Fmt.pf ppf "(%a BETWEEN %a AND %a)" pp a pp b pp c
  | Call (name, args) ->
    Fmt.pf ppf "%s(%a)" name Fmt.(list ~sep:(any ", ") pp) args

let to_string e = Fmt.str "%a" pp e

let cmp_tag = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let cmp_of_tag = function
  | 0 -> Eq
  | 1 -> Ne
  | 2 -> Lt
  | 3 -> Le
  | 4 -> Gt
  | 5 -> Ge
  | n -> failwith (Fmt.str "Expr: bad cmp tag %d" n)

let arith_tag = function Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Mod -> 4

let arith_of_tag = function
  | 0 -> Add
  | 1 -> Sub
  | 2 -> Mul
  | 3 -> Div
  | 4 -> Mod
  | n -> failwith (Fmt.str "Expr: bad arith tag %d" n)

let rec enc e expr =
  let open Codec.Enc in
  match expr with
  | Const v ->
    byte e 0;
    value e v
  | Field i ->
    byte e 1;
    varint e i
  | Param i ->
    byte e 2;
    varint e i
  | Not a ->
    byte e 3;
    enc e a
  | And (a, b) ->
    byte e 4;
    enc e a;
    enc e b
  | Or (a, b) ->
    byte e 5;
    enc e a;
    enc e b
  | Cmp (c, a, b) ->
    byte e 6;
    byte e (cmp_tag c);
    enc e a;
    enc e b
  | Is_null a ->
    byte e 7;
    enc e a
  | Arith (op, a, b) ->
    byte e 8;
    byte e (arith_tag op);
    enc e a;
    enc e b
  | Neg a ->
    byte e 9;
    enc e a
  | Like (a, p) ->
    byte e 10;
    enc e a;
    string e p
  | In_list (a, vs) ->
    byte e 11;
    enc e a;
    list e value vs
  | Between (a, b, c) ->
    byte e 12;
    enc e a;
    enc e b;
    enc e c
  | Call (name, args) ->
    byte e 13;
    string e name;
    varint e (List.length args);
    List.iter (enc e) args

let rec dec d =
  let open Codec.Dec in
  match byte d with
  | 0 -> Const (value d)
  | 1 -> Field (varint d)
  | 2 -> Param (varint d)
  | 3 -> Not (dec d)
  | 4 ->
    let a = dec d in
    let b = dec d in
    And (a, b)
  | 5 ->
    let a = dec d in
    let b = dec d in
    Or (a, b)
  | 6 ->
    let c = cmp_of_tag (byte d) in
    let a = dec d in
    let b = dec d in
    Cmp (c, a, b)
  | 7 -> Is_null (dec d)
  | 8 ->
    let op = arith_of_tag (byte d) in
    let a = dec d in
    let b = dec d in
    Arith (op, a, b)
  | 9 -> Neg (dec d)
  | 10 ->
    let a = dec d in
    let p = string d in
    Like (a, p)
  | 11 ->
    let a = dec d in
    let vs = list d value in
    In_list (a, vs)
  | 12 ->
    let a = dec d in
    let b = dec d in
    let c = dec d in
    Between (a, b, c)
  | 13 ->
    let name = string d in
    let n = varint d in
    let args = List.init n (fun _ -> dec d) in
    Call (name, args)
  | n -> failwith (Fmt.str "Expr.dec: bad tag %d" n)

let encode expr =
  let e = Codec.Enc.create () in
  enc e expr;
  Codec.Enc.to_bytes e

let decode b = dec (Codec.Dec.of_bytes b)
