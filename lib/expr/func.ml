open Dmx_value

type impl = Value.t list -> Value.t

let table : (string, impl * bool) Hashtbl.t = Hashtbl.create 32 [@@dmx.global "config-immutable-after-setup"]

let canon name = String.lowercase_ascii name

let register ?(null_call = false) name f =
  let key = canon name in
  if Hashtbl.mem table key then
    invalid_arg (Fmt.str "Func.register: %S already registered" name);
  Hashtbl.replace table key (f, null_call)

let find name = Hashtbl.find_opt table (canon name)

let names () =
  Hashtbl.fold (fun k _ acc -> k :: acc) table [] |> List.sort String.compare

let bad name args =
  failwith
    (Fmt.str "function %s: bad arguments (%a)" name
       Fmt.(list ~sep:(any ", ") Value.pp)
       args)

let float_arg name args v =
  match Value.to_float v with
  | Some f -> f
  | None -> bad name args

(* Rectangles are four float/int values: xlo, ylo, xhi, yhi. *)
let rect name args = function
  | [ a; b; c; d ] ->
    let f = float_arg name args in
    (f a, f b, f c, f d)
  | _ -> bad name args

let () =
  register "abs" (function
    | [ Value.Int i ] -> Int (Int64.abs i)
    | [ Value.Float f ] -> Float (Float.abs f)
    | args -> bad "abs" args);
  register "lower" (function
    | [ Value.String s ] -> String (String.lowercase_ascii s)
    | args -> bad "lower" args);
  register "upper" (function
    | [ Value.String s ] -> String (String.uppercase_ascii s)
    | args -> bad "upper" args);
  register "length" (function
    | [ Value.String s ] -> Value.int (String.length s)
    | args -> bad "length" args);
  register "substr" (function
    | [ Value.String s; Value.Int start; Value.Int len ] ->
      let start = Int64.to_int start and len = Int64.to_int len in
      let n = String.length s in
      let start = max 0 (min start n) in
      let len = max 0 (min len (n - start)) in
      String (String.sub s start len)
    | args -> bad "substr" args);
  register "mod" (function
    | [ Value.Int a; Value.Int b ] when b <> 0L -> Int (Int64.rem a b)
    | args -> bad "mod" args);
  (* Spatial builtins over rectangles split as two argument groups:
     encloses(q...) takes 8 args: query rect then data rect, true when the
     query rectangle fully encloses the data rectangle. *)
  register "encloses" (fun args ->
      match args with
      | [ _; _; _; _; _; _; _; _ ] ->
        let q = rect "encloses" args (List.filteri (fun i _ -> i < 4) args) in
        let r = rect "encloses" args (List.filteri (fun i _ -> i >= 4) args) in
        let qxl, qyl, qxh, qyh = q and rxl, ryl, rxh, ryh = r in
        Bool (qxl <= rxl && qyl <= ryl && qxh >= rxh && qyh >= ryh)
      | _ -> bad "encloses" args);
  register "overlaps" (fun args ->
      match args with
      | [ _; _; _; _; _; _; _; _ ] ->
        let q = rect "overlaps" args (List.filteri (fun i _ -> i < 4) args) in
        let r = rect "overlaps" args (List.filteri (fun i _ -> i >= 4) args) in
        let qxl, qyl, qxh, qyh = q and rxl, ryl, rxh, ryh = r in
        Bool (qxl <= rxh && rxl <= qxh && qyl <= ryh && ryl <= qyh)
      | _ -> bad "overlaps" args);
  register "contains_point" (fun args ->
      match args with
      | [ _; _; _; _; _; _ ] ->
        let r = rect "contains_point" args (List.filteri (fun i _ -> i < 4) args) in
        let rxl, ryl, rxh, ryh = r in
        let px =
          float_arg "contains_point" args (List.nth args 4)
        in
        let py =
          float_arg "contains_point" args (List.nth args 5)
        in
        Bool (rxl <= px && px <= rxh && ryl <= py && py <= ryh)
      | _ -> bad "contains_point" args);
  register "area" (fun args ->
      match args with
      | [ _; _; _; _ ] ->
        let xl, yl, xh, yh = rect "area" args args in
        Float (Float.max 0. (xh -. xl) *. Float.max 0. (yh -. yl))
      | _ -> bad "area" args)
