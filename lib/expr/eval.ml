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

   It runs per record in the innermost scan loop and allocates nothing:
   one loop reads the fields, with its read position and verdict in local
   variables that no closure or call captures, and its helpers below are
   top-level functions that return ints and bools. *)

type span_check =
  | Sc_int of Expr.cmp * int64
  | Sc_float of Expr.cmp * float
  | Sc_string of Expr.cmp * string
  | Sc_bool of Expr.cmp * bool

(* Per-field matcher step, specialized from the [span_check]s on the field. *)
type span_field =
  | Sf_skip
  | Sf_int of Expr.cmp * int * int
    (* operator, constant split as (signed high 32, unsigned low 32) *)
  | Sf_string of Expr.cmp * string
  | Sf_checks of span_check list

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

(* String.compare, but the left operand is [s.[pos .. pos+len-1]]; [k]
   bytes of both are already equal. *)
let rec span_str_cmp_from s pos len const k =
  if k = len || k = String.length const then Int.compare len (String.length const)
  else
    let c = Char.compare (String.unsafe_get s (pos + k)) (String.unsafe_get const k) in
    if c <> 0 then c else span_str_cmp_from s pos len const (k + 1)

(* Whether [s.[pos .. pos+len-1]] [op] [const] holds; equality needs
   equal lengths before any byte is compared. *)
let span_str_holds op s pos len const =
  match (op : Expr.cmp) with
  | Eq -> len = String.length const && span_str_cmp_from s pos len const 0 = 0
  | Ne -> len <> String.length const || span_str_cmp_from s pos len const 0 <> 0
  | _ -> holds op (span_str_cmp_from s pos len const 0)

(* [Int64.compare] of the little-endian int64 at [s.[q .. q+7]] with a
   constant split as (signed high 32, unsigned low 32) words, compared
   lexicographically without building an [int64]. *)
let[@inline] span_int_cmp s q yhi ylo =
  let lo =
    byte s q
    lor (byte s (q + 1) lsl 8)
    lor (byte s (q + 2) lsl 16)
    lor (byte s (q + 3) lsl 24)
  in
  let hi_raw =
    byte s (q + 4)
    lor (byte s (q + 5) lsl 8)
    lor (byte s (q + 6) lsl 16)
    lor (byte s (q + 7) lsl 24)
  in
  let hi = if hi_raw >= 0x8000_0000 then hi_raw - 0x1_0000_0000 else hi_raw in
  if hi < yhi then -1
  else if hi > yhi then 1
  else if lo < ylo then -1
  else if lo > ylo then 1
  else 0

(* Whether every conjunct of an [Sf_checks] field holds on the value of tag
   [tag] at [q]: a 64-bit scalar (tag 2 int, tag 3 float), a bool (tag 1),
   or the string [s.[q .. q+slen-1]] (tag 4). A conjunct of another type
   than the value raises [Exit]. *)
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
      | Sc_string (op, y), 4 -> span_str_holds op s q slen y
      | _ -> raise Exit
    in
    ok && span_checks s tag q slen cs

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
        | Value.String y, Value.Tstring -> Sc_string (op, y)
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
          | [ Sc_int (op, y) ] ->
            Sf_int
              ( op,
                Int64.to_int (Int64.shift_right y 32),
                Int64.to_int (Int64.logand y 0xFFFF_FFFFL) )
          | [ Sc_string (op, y) ] -> Sf_string (op, y)
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
       varints, little-endian 64-bit scalars, length-prefixed strings) in
       one loop whose read position [p] and verdict [keep] are locals no
       closure or call captures, so they stay out of the heap. Any shape
       deviation — truncation, width drift, a tag that is not the declared
       type — raises [Exit] and reports [None]: the caller materializes the
       record, which re-raises the decoder's own error on truly malformed
       input. *)
    Some
      (fun s ~pos ~len ->
        let limit = pos + len in
        match
          let p = ref pos in
          (* field count, a LEB128 varint *)
          if pos >= limit then raise Exit;
          let count = ref (byte s pos) in
          incr p;
          if !count >= 0x80 then begin
            count := !count land 0x7f;
            let shift = ref 7 and more = ref true in
            while !more do
              if !p >= limit then raise Exit;
              let b = byte s !p in
              incr p;
              count := !count lor ((b land 0x7f) lsl !shift);
              shift := !shift + 7;
              more := b >= 0x80
            done
          end;
          if !count <> arity then raise Exit;
          let keep = ref true and i = ref 0 in
          while !keep && !i <= last do
            if !p >= limit then raise Exit;
            let tag = byte s !p in
            let q = !p + 1 in
            (* step [p] past the value; a string's bytes are [q, q+slen) *)
            let slen = ref 0 in
            (match tag with
            | 0 -> p := q
            | 1 -> if q >= limit then raise Exit else p := q + 1
            | 2 | 3 -> if q + 8 > limit then raise Exit else p := q + 8
            | 4 ->
              if q >= limit then raise Exit;
              slen := byte s q;
              let r = ref (q + 1) in
              if !slen >= 0x80 then begin
                slen := !slen land 0x7f;
                let shift = ref 7 and more = ref true in
                while !more do
                  if !r >= limit then raise Exit;
                  let b = byte s !r in
                  incr r;
                  slen := !slen lor ((b land 0x7f) lsl !shift);
                  shift := !shift + 7;
                  more := b >= 0x80
                done
              end;
              if !slen < 0 || !slen > limit - !r then raise Exit;
              p := !r + !slen
            | _ -> raise Exit);
            (match plan.(!i) with
            | Sf_skip -> ()
            | Sf_int (op, yhi, ylo) ->
              if tag = 0 then keep := false (* NULL: UNKNOWN, never TRUE *)
              else if tag <> 2 then raise Exit
              else keep := holds op (span_int_cmp s q yhi ylo)
            | Sf_string (op, y) ->
              if tag = 0 then keep := false
              else if tag <> 4 then raise Exit
              else keep := span_str_holds op s (!p - !slen) !slen y
            | Sf_checks cs ->
              if tag = 0 then keep := false
              else if tag = 4 then keep := span_checks s tag (!p - !slen) !slen cs
              else keep := span_checks s tag q 0 cs);
            incr i
          done;
          !keep
        with
        | true -> Some true
        | false -> Some false
        | exception Exit -> None)
