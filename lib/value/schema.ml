type column = {
  name : string;
  ty : Value.ty;
  nullable : bool;
}

type t = { cols : column array }

let column ?(nullable = true) name ty = { name; ty; nullable }

let make cols =
  let seen = Hashtbl.create 8 in
  let rec check = function
    | [] -> Ok ()
    | c :: rest ->
      let key = String.lowercase_ascii c.name in
      if c.name = "" then Error "schema: empty column name"
      else if Hashtbl.mem seen key then
        Error (Fmt.str "schema: duplicate column %S" c.name)
      else begin
        Hashtbl.add seen key ();
        check rest
      end
  in
  if cols = [] then Error "schema: no columns"
  else
    match check cols with
    | Ok () -> Ok { cols = Array.of_list cols }
    | Error _ as e -> e

let make_exn cols =
  match make cols with Ok s -> s | Error e -> invalid_arg e

let arity t = Array.length t.cols
let columns t = Array.to_list t.cols
let col t i = t.cols.(i)

let field_index t name =
  let key = String.lowercase_ascii name in
  let rec loop i =
    if i >= Array.length t.cols then None
    else if String.lowercase_ascii t.cols.(i).name = key then Some i
    else loop (i + 1)
  in
  loop 0

let field_name t i = t.cols.(i).name
let field_ty t i = t.cols.(i).ty

let validate_record t record =
  if Array.length record <> Array.length t.cols then
    Error
      (Fmt.str "record arity %d does not match schema arity %d"
         (Array.length record) (Array.length t.cols))
  else
    let rec loop i =
      if i >= Array.length t.cols then Ok ()
      else
        let c = t.cols.(i) in
        let v = record.(i) in
        if v = Value.Null && not c.nullable then
          Error (Fmt.str "column %S is NOT NULL" c.name)
        else if not (Value.has_type c.ty v) then
          Error
            (Fmt.str "column %S expects %s, got %s" c.name
               (Value.ty_to_string c.ty) (Value.to_string v))
        else loop (i + 1)
    in
    loop 0

let equal a b =
  Array.length a.cols = Array.length b.cols
  && Array.for_all2 (fun x y -> x = y) a.cols b.cols

let pp ppf t =
  let pp_col ppf c =
    Fmt.pf ppf "%s %a%s" c.name Value.pp_ty c.ty
      (if c.nullable then "" else " NOT NULL")
  in
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") pp_col) t.cols
