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

(* [int -> bool] decision for a comparison operator, applied to a
   [compare] result; the span matcher specializes on it. *)
let cmp_decision : Expr.cmp -> int -> bool = function
  | Eq -> fun c -> c = 0
  | Ne -> fun c -> c <> 0
  | Lt -> fun c -> c < 0
  | Le -> fun c -> c <= 0
  | Gt -> fun c -> c > 0
  | Ge -> fun c -> c >= 0

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
   comparison can raise. All conjuncts are still evaluated (no boolean
   short-circuit), matching the pinned left-to-right evaluation of the
   interpreter. A payload whose shape deviates (width drift, unexpected
   tag) makes the matcher return [None]: the caller must fall back to
   materializing the record and evaluating the predicate on it. *)

type span_check =
  | Sc_int of (int -> bool) * int64
  | Sc_float of (int -> bool) * float
  | Sc_string of (int -> bool) * string
  | Sc_bool of (int -> bool) * bool

(* Per-field matcher step, specialized from the [span_check]s on the field. *)
type span_field =
  | Sf_skip
  | Sf_int of (int -> bool) * int * int
    (* decide, constant split as (signed high 32, unsigned low 32) *)
  | Sf_string of (int -> bool) * string
  | Sf_checks of span_check list

exception Span_unsupported

(* Continue a LEB128 varint whose bytes so far accumulated [acc] with the
   continuation bit still set; [p] is past the first byte. *)
let rec span_varint_rest s (p : int ref) limit shift acc =
  if !p >= limit then raise Exit;
  let b = Char.code (String.unsafe_get s !p) in
  incr p;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else span_varint_rest s p limit (shift + 7) acc

(* String.compare, but the left operand is [s.[pos .. pos+len-1]]. *)
let span_str_cmp s pos len const =
  let cl = String.length const in
  let m = if len < cl then len else cl in
  let rec go k =
    if k = m then Int.compare len cl
    else
      let c = Char.compare (String.unsafe_get s (pos + k)) (String.unsafe_get const k) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

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
      let decide = cmp_decision op in
      let check =
        match c, Schema.field_ty schema i with
        | Value.Int y, Value.Tint -> Sc_int (decide, y)
        | Value.Float y, Value.Tfloat -> Sc_float (decide, y)
        | Value.String y, Value.Tstring -> Sc_string (decide, y)
        | Value.Bool y, Value.Tbool -> Sc_bool (decide, y)
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
    (* Specialize the dominant shapes — one Int or one String conjunct per
       field — so the per-record loop compares without boxing; Int constants
       are pre-split into (signed high, unsigned low) 32-bit words and
       compared lexicographically, which is [Int64.compare] without
       allocating an [int64]. *)
    let plan =
      Array.map
        (fun cs ->
          match cs with
          | [] -> Sf_skip
          | [ Sc_int (decide, y) ] ->
            Sf_int
              ( decide,
                Int64.to_int (Int64.shift_right y 32),
                Int64.to_int (Int64.logand y 0xFFFF_FFFFL) )
          | [ Sc_string (decide, y) ] -> Sf_string (decide, y)
          | cs -> Sf_checks cs)
        by_field
    in
    let last =
      let l = ref 0 in
      Array.iteri
        (fun i c -> match c with Sf_skip -> () | _ -> l := i)
        plan;
      !l
    in
    (* The matcher reads the [Codec] wire format directly (tag byte, LEB128
       varints, little-endian 64-bit scalars, length-prefixed strings) with
       hand-inlined readers: it runs per record in the innermost scan loop,
       and each [Codec.Dec] primitive would be a cross-module call. Any
       shape deviation — truncation, width drift, a tag that is not the
       declared type — raises [Exit] and reports [None]: the caller
       materializes the record, which re-raises the decoder's own error on
       truly malformed input. *)
    Some
      (fun s ~pos ~len ->
        let limit = pos + len in
        let p = ref pos in
        match
          (* field count: single-byte varint fast path *)
          (if !p >= limit then raise Exit);
          let b0 = Char.code (String.unsafe_get s !p) in
          incr p;
          let count =
            if b0 < 0x80 then b0
            else span_varint_rest s p limit 7 (b0 land 0x7f)
          in
          if count <> arity then raise Exit;
          let keep = ref true in
          for i = 0 to last do
            (if !p >= limit then raise Exit);
            let tag = Char.code (String.unsafe_get s !p) in
            incr p;
            match plan.(i) with
            | Sf_skip ->
              if tag = 2 || tag = 3 then begin
                if !p + 8 > limit then raise Exit;
                p := !p + 8
              end
              else if tag = 4 then begin
                (if !p >= limit then raise Exit);
                let b = Char.code (String.unsafe_get s !p) in
                incr p;
                let n =
                  if b < 0x80 then b
                  else span_varint_rest s p limit 7 (b land 0x7f)
                in
                if !p + n > limit then raise Exit;
                p := !p + n
              end
              else if tag = 1 then begin
                if !p >= limit then raise Exit;
                incr p
              end
              else if tag <> 0 then raise Exit
            | Sf_int (decide, yhi, ylo) ->
              if tag = 0 then
                (* NULL: every comparison on it is UNKNOWN, never TRUE *)
                keep := false
              else if tag <> 2 then raise Exit
              else begin
                if !p + 8 > limit then raise Exit;
                let q = !p in
                p := q + 8;
                let lo =
                  Char.code (String.unsafe_get s q)
                  lor (Char.code (String.unsafe_get s (q + 1)) lsl 8)
                  lor (Char.code (String.unsafe_get s (q + 2)) lsl 16)
                  lor (Char.code (String.unsafe_get s (q + 3)) lsl 24)
                in
                let hi_raw =
                  Char.code (String.unsafe_get s (q + 4))
                  lor (Char.code (String.unsafe_get s (q + 5)) lsl 8)
                  lor (Char.code (String.unsafe_get s (q + 6)) lsl 16)
                  lor (Char.code (String.unsafe_get s (q + 7)) lsl 24)
                in
                let hi =
                  if hi_raw >= 0x8000_0000 then hi_raw - 0x1_0000_0000
                  else hi_raw
                in
                let c =
                  if hi < yhi then -1
                  else if hi > yhi then 1
                  else if lo < ylo then -1
                  else if lo > ylo then 1
                  else 0
                in
                if not (decide c) then keep := false
              end
            | Sf_string (decide, y) ->
              if tag = 0 then keep := false
              else if tag <> 4 then raise Exit
              else begin
                (if !p >= limit then raise Exit);
                let b = Char.code (String.unsafe_get s !p) in
                incr p;
                let slen =
                  if b < 0x80 then b
                  else span_varint_rest s p limit 7 (b land 0x7f)
                in
                let spos = !p in
                if spos + slen > limit then raise Exit;
                p := spos + slen;
                if not (decide (span_str_cmp s spos slen y)) then keep := false
              end
            | Sf_checks cs ->
              (* several conjuncts on one field, or float/bool *)
              if tag = 0 then keep := false
              else begin
                match tag with
                | 2 | 3 ->
                  if !p + 8 > limit then raise Exit;
                  let bits = String.get_int64_le s !p in
                  p := !p + 8;
                  List.iter
                    (fun c ->
                      match c, tag with
                      | Sc_int (decide, y), 2 ->
                        if not (decide (Int64.compare bits y)) then
                          keep := false
                      | Sc_float (decide, y), 3 ->
                        if
                          not
                            (decide
                               (Float.compare (Int64.float_of_bits bits) y))
                        then keep := false
                      | _ -> raise Exit)
                    cs
                | 1 ->
                  (if !p >= limit then raise Exit);
                  let x =
                    match Char.code (String.unsafe_get s !p) with
                    | 0 -> false
                    | 1 -> true
                    | _ -> raise Exit
                  in
                  incr p;
                  List.iter
                    (fun c ->
                      match c with
                      | Sc_bool (decide, y) ->
                        if not (decide (Bool.compare x y)) then keep := false
                      | _ -> raise Exit)
                    cs
                | 4 ->
                  (if !p >= limit then raise Exit);
                  let b = Char.code (String.unsafe_get s !p) in
                  incr p;
                  let slen =
                    if b < 0x80 then b
                    else span_varint_rest s p limit 7 (b land 0x7f)
                  in
                  let spos = !p in
                  if spos + slen > limit then raise Exit;
                  p := spos + slen;
                  List.iter
                    (fun c ->
                      match c with
                      | Sc_string (decide, y) ->
                        if not (decide (span_str_cmp s spos slen y)) then
                          keep := false
                      | _ -> raise Exit)
                    cs
                | _ -> raise Exit
              end
          done;
          !keep
        with
        | keep -> if keep then Some true else Some false
        | exception Exit -> None)
