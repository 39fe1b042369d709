open Dmx_value

exception Error of string

type truth = True | False | Unknown

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let pp_truth ppf t =
  Fmt.string ppf
    (match t with True -> "TRUE" | False -> "FALSE" | Unknown -> "UNKNOWN")

let truth_of_bool b = if b then True else False

let t_and a b =
  match a, b with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

let t_or a b =
  match a, b with
  | True, _ | _, True -> True
  | False, False -> False
  | _ -> Unknown

let t_not = function True -> False | False -> True | Unknown -> Unknown

let value_of_truth = function
  | True -> Value.Bool true
  | False -> Value.Bool false
  | Unknown -> Value.Null

let truth_of_value = function
  | Value.Null -> Unknown
  | Value.Bool b -> truth_of_bool b
  | v -> err "expected boolean, got %a" Value.pp v

(* Numeric coercion: Int op Float promotes to Float. *)
let arith op a b =
  let open Value in
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> begin
    match (op : Expr.arith) with
    | Add -> Int (Int64.add x y)
    | Sub -> Int (Int64.sub x y)
    | Mul -> Int (Int64.mul x y)
    | Div -> if y = 0L then err "division by zero" else Int (Int64.div x y)
    | Mod -> if y = 0L then err "division by zero" else Int (Int64.rem x y)
  end
  | (Int _ | Float _), (Int _ | Float _) ->
    let x = Option.get (to_float a) and y = Option.get (to_float b) in
    begin
      match (op : Expr.arith) with
      | Add -> Float (x +. y)
      | Sub -> Float (x -. y)
      | Mul -> Float (x *. y)
      | Div -> if y = 0. then err "division by zero" else Float (x /. y)
      | Mod -> err "mod on float"
    end
  | String x, String y when op = Expr.Add -> String (x ^ y)
  | _ -> err "arithmetic on %a and %a" Value.pp a Value.pp b

let compare_values a b =
  let open Value in
  match a, b with
  | Int x, Float y -> Some (Float.compare (Int64.to_float x) y)
  | Float x, Int y -> Some (Float.compare x (Int64.to_float y))
  | _ -> begin
    match type_of a, type_of b with
    | Some ta, Some tb when ta = tb -> Some (Value.compare a b)
    | _ -> None
  end

let cmp op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Unknown
  | _ -> begin
    match compare_values a b with
    | None -> err "cannot compare %a with %a" Value.pp a Value.pp b
    | Some c ->
      truth_of_bool
        (match (op : Expr.cmp) with
        | Eq -> c = 0
        | Ne -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0)
  end

(* LIKE matching, iteratively: on a mismatch, retry only from the most recent
   '%', letting it absorb one more character. An earlier '%' never needs
   retrying — whatever it could absorb, the later one can too — so the
   worst case is O(|pattern| * |s|). *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* [star]: pattern index just past the last '%' seen (-1 if none);
     [retry]: string index that '%' is next retried from *)
  let rec go pi si star retry =
    if si < ns then
      if pi < np && pattern.[pi] = '%' then go (pi + 1) si (pi + 1) si
      else if pi < np && (pattern.[pi] = '_' || pattern.[pi] = s.[si]) then
        go (pi + 1) (si + 1) star retry
      else if star >= 0 then go star (retry + 1) star (retry + 1)
      else false
    else
      (* string consumed: only trailing '%'s may remain *)
      let rec rest pi = pi >= np || (pattern.[pi] = '%' && rest (pi + 1)) in
      rest pi
  in
  go 0 0 (-1) 0

let rec eval_v params record (e : Expr.t) : Value.t =
  match e with
  | Const v -> v
  | Field i ->
    if i < 0 || i >= Array.length record then err "field $%d out of range" i
    else record.(i)
  | Param i ->
    if i < 0 || i >= Array.length params then err "parameter ?%d not supplied" i
    else params.(i)
  | Not a -> value_of_truth (t_not (eval_t params record a))
  | And (a, b) ->
    (* binary operands evaluate left to right — OCaml leaves application
       order unspecified, and which operand's error surfaces must not *)
    let ta = eval_t params record a in
    let tb = eval_t params record b in
    value_of_truth (t_and ta tb)
  | Or (a, b) ->
    let ta = eval_t params record a in
    let tb = eval_t params record b in
    value_of_truth (t_or ta tb)
  | Cmp (op, a, b) ->
    let va = eval_v params record a in
    let vb = eval_v params record b in
    value_of_truth (cmp op va vb)
  | Is_null a -> Value.Bool (eval_v params record a = Value.Null)
  | Arith (op, a, b) ->
    let va = eval_v params record a in
    let vb = eval_v params record b in
    arith op va vb
  | Neg a -> begin
    match eval_v params record a with
    | Value.Null -> Value.Null
    | Value.Int i -> Value.Int (Int64.neg i)
    | Value.Float f -> Value.Float (-.f)
    | v -> err "negation of %a" Value.pp v
  end
  | Like (a, pattern) -> begin
    match eval_v params record a with
    | Value.Null -> Value.Null
    | Value.String s -> Value.Bool (like_match ~pattern s)
    | v -> err "LIKE on %a" Value.pp v
  end
  | In_list (a, vs) -> begin
    match eval_v params record a with
    | Value.Null -> Value.Null
    | v ->
      let any_null = List.exists (fun x -> x = Value.Null) vs in
      let hit =
        List.exists (fun x -> cmp Expr.Eq v x = True) vs
      in
      if hit then Value.Bool true
      else if any_null then Value.Null
      else Value.Bool false
  end
  | Between (a, lo, hi) ->
    let v = eval_v params record a in
    let lo = eval_v params record lo in
    let hi = eval_v params record hi in
    let ge = cmp Expr.Ge v lo in
    let le = cmp Expr.Le v hi in
    value_of_truth (t_and ge le)
  | Call (name, args) -> begin
    match Func.find name with
    | None -> err "unknown function %s" name
    | Some (f, null_call) ->
      let vals = List.map (eval_v params record) args in
      if (not null_call) && List.exists (fun v -> v = Value.Null) vals then
        Value.Null
      else begin
        (* a misbehaving user function must not crash the evaluator with an
           untyped exception *)
        try f vals with
        | Error _ as e -> raise e
        | Failure msg | Invalid_argument msg -> err "function %s: %s" name msg
      end
  end

and eval_t params record e = truth_of_value (eval_v params record e)

let no_params : Value.t array = [||]

let eval ?(params = no_params) record e = eval_v params record e
let truth ?(params = no_params) record e = eval_t params record e
let test ?(params = no_params) record e = eval_t params record e = True

(* ------------------------------------------------------------------ *)
(* Span-compiled predicates.

   [compile_span] specializes the scan-filter shape — a conjunction of
   [Field <op> Const] comparisons — into a matcher that runs directly
   against an encoded record payload: fields the predicate does not read
   are skipped in the encoding, read fields are compared in place (string
   constants against the payload bytes, without materializing a value).
   This is the innermost loop of a vectorized scan, where the payload is
   still in the pinned page image.

   Supported conjuncts are restricted so the matcher cannot disagree with
   {!test}: the constant's type must equal the field's declared
   schema type (no cross-type numeric coercion), so on schema-validated
   data every field tag is either the declared type or NULL and no
   comparison can raise. The matcher returns at the first conjunct, in
   field order, that is not TRUE: a conjunction with one FALSE or UNKNOWN
   conjunct is not TRUE whatever the others are, and none of them can
   raise. A payload whose shape deviates before that point (width drift,
   unexpected tag) makes the matcher return [None]: the caller must fall
   back to materializing the record and evaluating the predicate on it.

   The matcher is staged: built once per call, it is a chain of closures,
   one per field up to the last field the predicate reads. A stage takes
   the payload, the position of its field's tag and the payload's end,
   steps over the field, tests it if the predicate reads it, and hands the
   next position to the next stage; past the last stage the record
   qualifies. A field with one int or one string conjunct gets a stage
   whose comparison operator was resolved when it was built: an int is
   compared with [String.get_int64_le] against the [int64] constant, a
   string in place by a comparison closure resolved the same way. Any other
   read field (a float or bool, or several conjuncts) runs its checks in
   [span_checks]. Per record, the chain allocates nothing: positions are
   ints passed from stage to stage, and a length whose varint takes more
   than one byte is read in two passes rather than returned as a pair. *)

type span_check =
  | Sc_int of Expr.cmp * int64
  | Sc_float of Expr.cmp * float
  | Sc_string of (string -> int -> int -> bool)
    (* whether [s.[pos .. pos+len-1]] satisfies the conjunct *)
  | Sc_bool of Expr.cmp * bool

(* A matcher stage: payload, position of a field's tag, payload end. *)
type stage = string -> int -> int -> bool

exception Span_unsupported

(* Whether a [compare] result [c] satisfies the comparison operator. *)
let holds (op : Expr.cmp) c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* The readers take [String.unsafe_get] only after checking the position
   against [limit], the end of the payload. *)
let byte s p = Char.code (String.unsafe_get s p)

(* The position just past the LEB128 varint at [p]. *)
let rec varint_stop s p limit =
  if p >= limit then raise Exit
  else if byte s p < 0x80 then p + 1
  else varint_stop s (p + 1) limit

(* The value of the varint at [p], whose end [varint_stop] has checked;
   accumulated as [Codec.Dec.varint] does, overflow included. *)
let rec varint_value s p shift acc =
  let b = byte s p in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else varint_value s (p + 1) (shift + 7) acc

(* The start of the bytes of the string whose length varint is at [q]. *)
let string_start s q limit =
  if q >= limit then raise Exit
  else if byte s q < 0x80 then q + 1
  else varint_stop s q limit

(* The position just past the field whose tag is at [p]. *)
let field_end s p limit =
  if p >= limit then raise Exit;
  match byte s p with
  | 0 -> p + 1
  | 1 -> if p + 2 > limit then raise Exit else p + 2
  | 2 | 3 -> if p + 9 > limit then raise Exit else p + 9
  | 4 ->
    let start = string_start s (p + 1) limit in
    let n = varint_value s (p + 1) 0 0 in
    if n < 0 || n > limit - start then raise Exit else start + n
  | _ -> raise Exit

(* String.compare, but the left operand is [s.[pos .. pos+len-1]]; [k]
   bytes of both are already equal. *)
let rec span_str_cmp_from s pos len const k =
  if k = len || k = String.length const then Int.compare len (String.length const)
  else
    let c = Char.compare (String.unsafe_get s (pos + k)) (String.unsafe_get const k) in
    if c <> 0 then c else span_str_cmp_from s pos len const (k + 1)

(* [s.[pos .. pos+len-1]] [op] [y], the operator resolved here; equality
   needs equal lengths before any byte is compared. *)
let str_test (op : Expr.cmp) y =
  let ny = String.length y in
  match op with
  | Eq -> fun s pos len -> len = ny && span_str_cmp_from s pos len y 0 = 0
  | Ne -> fun s pos len -> len <> ny || span_str_cmp_from s pos len y 0 <> 0
  | Lt -> fun s pos len -> span_str_cmp_from s pos len y 0 < 0
  | Le -> fun s pos len -> span_str_cmp_from s pos len y 0 <= 0
  | Gt -> fun s pos len -> span_str_cmp_from s pos len y 0 > 0
  | Ge -> fun s pos len -> span_str_cmp_from s pos len y 0 >= 0

(* Whether every conjunct of a field holds on the value of tag [tag] at
   [q]: a 64-bit scalar (tag 2 int, tag 3 float), a bool (tag 1), or the
   string [s.[q .. q+slen-1]] (tag 4). A conjunct of another type than the
   value raises [Exit]. *)
let rec span_checks s tag q slen = function
  | [] -> true
  | c :: cs ->
    let ok =
      match c, tag with
      | Sc_int (op, y), 2 -> holds op (Int64.compare (String.get_int64_le s q) y)
      | Sc_float (op, y), 3 ->
        holds op (Float.compare (Int64.float_of_bits (String.get_int64_le s q)) y)
      | Sc_bool (op, y), 1 ->
        let x = match byte s q with 0 -> false | 1 -> true | _ -> raise Exit in
        holds op (Bool.compare x y)
      | Sc_string t, 4 -> t s q slen
      | _ -> raise Exit
    in
    ok && span_checks s tag q slen cs

(* Each stage first tries the common case inline: a value of the field's
   declared type, a string with a one-byte length, within [limit]. Anything
   else (NULL, a long string, a deviation) leaves by a tail call to a
   general path, so the common case calls nothing but a string stage's
   comparison and the next stage. *)

let skip_slow (k : stage) s p limit = k s (field_end s p limit) limit

(* A field the predicate does not read, of declared type [ty]. *)
let skip_stage (ty : Value.ty) (k : stage) : stage =
  match ty with
  | Tint | Tfloat ->
    let tag = if ty = Tint then 2 else 3 in
    fun s p limit ->
      if p + 9 <= limit && byte s p = tag then k s (p + 9) limit
      else skip_slow k s p limit
  | Tbool ->
    fun s p limit ->
      if p + 2 <= limit && byte s p = 1 then k s (p + 2) limit
      else skip_slow k s p limit
  | Tstring ->
    fun s p limit ->
      let n = if p + 1 < limit && byte s p = 4 then byte s (p + 1) else 0x80 in
      if n < 0x80 && n <= limit - p - 2 then k s (p + 2 + n) limit
      else skip_slow k s p limit

(* False for a NULL at [p] (UNKNOWN, never TRUE); [Exit] for anything
   else. *)
let null_or_exit s p limit =
  if p < limit && byte s p = 0 then false else raise Exit

(* The common case of an int field: tag 2 and 8 bytes before [limit]. *)
let[@inline] int_at s p limit = p + 9 <= limit && byte s p = 2

let int_stage (op : Expr.cmp) (y : int64) (k : stage) : stage =
  match op with
  | Eq ->
    fun s p limit ->
      if int_at s p limit then
        String.get_int64_le s (p + 1) = y && k s (p + 9) limit
      else null_or_exit s p limit
  | Ne ->
    fun s p limit ->
      if int_at s p limit then
        String.get_int64_le s (p + 1) <> y && k s (p + 9) limit
      else null_or_exit s p limit
  | Lt ->
    fun s p limit ->
      if int_at s p limit then
        String.get_int64_le s (p + 1) < y && k s (p + 9) limit
      else null_or_exit s p limit
  | Le ->
    fun s p limit ->
      if int_at s p limit then
        String.get_int64_le s (p + 1) <= y && k s (p + 9) limit
      else null_or_exit s p limit
  | Gt ->
    fun s p limit ->
      if int_at s p limit then
        String.get_int64_le s (p + 1) > y && k s (p + 9) limit
      else null_or_exit s p limit
  | Ge ->
    fun s p limit ->
      if int_at s p limit then
        String.get_int64_le s (p + 1) >= y && k s (p + 9) limit
      else null_or_exit s p limit

(* A string field that is NULL, has a length of more than one byte, or
   deviates. *)
let string_slow test (k : stage) s p limit =
  if p + 1 < limit && byte s p = 4 then
    let e = field_end s p limit in
    let start = string_start s (p + 1) limit in
    test s start (e - start) && k s e limit
  else null_or_exit s p limit

let string_stage test (k : stage) : stage =
 fun s p limit ->
  let n = if p + 1 < limit && byte s p = 4 then byte s (p + 1) else 0x80 in
  if n < 0x80 && n <= limit - p - 2 then test s (p + 2) n && k s (p + 2 + n) limit
  else string_slow test k s p limit

let checks_stage cs (k : stage) : stage =
 fun s p limit ->
  let e = field_end s p limit in
  match byte s p with
  | 0 -> false
  | 4 ->
    let start = string_start s (p + 1) limit in
    span_checks s 4 start (e - start) cs && k s e limit
  | tag -> span_checks s tag (p + 1) 0 cs && k s e limit

let compile_span schema e =
  let arity = Schema.arity schema in
  let rec conjuncts e acc =
    match (e : Expr.t) with
    | And (a, b) -> conjuncts a (conjuncts b acc)
    | e -> e :: acc
  in
  let to_check (e : Expr.t) =
    match e with
    | Cmp (op, Field i, Const c) when i >= 0 && i < arity ->
      let check =
        match c, Schema.field_ty schema i with
        | Value.Int y, Value.Tint -> Sc_int (op, y)
        | Value.Float y, Value.Tfloat -> Sc_float (op, y)
        | Value.String y, Value.Tstring -> Sc_string (str_test op y)
        | Value.Bool y, Value.Tbool -> Sc_bool (op, y)
        | _ -> raise Span_unsupported
      in
      (i, check)
    | _ -> raise Span_unsupported
  in
  match List.map to_check (conjuncts e []) with
  | exception Span_unsupported -> None
  | checks ->
    let by_field = Array.make arity [] in
    List.iter (fun (i, c) -> by_field.(i) <- c :: by_field.(i)) checks;
    let last = List.fold_left (fun l (i, _) -> max l i) 0 checks in
    let rec chain i : stage =
      if i > last then fun _ _ _ -> true
      else
        let k = chain (i + 1) in
        match by_field.(i) with
        | [] -> skip_stage (Schema.field_ty schema i) k
        | [ Sc_int (op, y) ] -> int_stage op y k
        | [ Sc_string test ] -> string_stage test k
        | cs -> checks_stage cs k
    in
    let first = chain 0 in
    (* The field count, a varint, must be the schema's arity. A truncated
       or off-schema payload raises [Exit] in some stage and reports [None]:
       the caller materializes the record, which re-raises the decoder's
       own error on truly malformed input. *)
    Some
      (fun s ~pos ~len ->
        let limit = pos + len in
        match
          if arity < 0x80 && pos < limit && byte s pos = arity then
            first s (pos + 1) limit
          else
            let p = varint_stop s pos limit in
            if varint_value s pos 0 0 <> arity then raise Exit;
            first s p limit
        with
        | true -> Some true
        | false -> Some false
        | exception Exit -> None)
