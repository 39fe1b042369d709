open Dmx_value

let rec conjuncts = function
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc c -> Expr.And (acc, c)) e rest)

let is_field_free e = Expr.fields_used e = []

let const_value ?params e =
  if not (is_field_free e) then None
  else if Expr.max_param e >= 0 && params = None then None
  else
    match Eval.eval ?params [||] e with
    | v -> Some v
    | exception Eval.Error _ -> None

type bound = Incl of Value.t | Excl of Value.t | Unbounded
type range = { lo : bound; hi : bound }

let full_range = { lo = Unbounded; hi = Unbounded }

type sarg =
  | Eq of int * Expr.t
  | Cmp_range of int * Expr.cmp * Expr.t
  | Encloses of int array * Expr.t array

let flip_cmp : Expr.cmp -> Expr.cmp = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

(* rhs must be bindable at execution time: no field references. *)
let bindable e = is_field_free e

let sarg_of_conjunct (e : Expr.t) =
  match e with
  | Cmp (op, Field i, rhs) when bindable rhs -> begin
    match op with
    | Eq -> Some (Eq (i, rhs))
    | Lt | Le | Gt | Ge -> Some (Cmp_range (i, op, rhs))
    | Ne -> None
  end
  | Cmp (op, lhs, Field i) when bindable lhs -> begin
    match flip_cmp op with
    | Eq -> Some (Eq (i, lhs))
    | (Lt | Le | Gt | Ge) as op' -> Some (Cmp_range (i, op', lhs))
    | Ne -> None
  end
  | Between (Field i, lo, hi) when bindable lo && bindable hi ->
    (* Callers that want both bounds expand Between first (see
       [expand_between]); when asked about the raw conjunct, report the low
       bound. *)
    Some (Cmp_range (i, Ge, lo))
  | Call (name, args) when String.lowercase_ascii name = "encloses" -> begin
    (* encloses(q0,q1,q2,q3, $a,$b,$c,$d): query rect then data-rect fields *)
    match args with
    | [ q0; q1; q2; q3; Field a; Field b; Field c; Field d ]
      when List.for_all bindable [ q0; q1; q2; q3 ] ->
      Some (Encloses ([| a; b; c; d |], [| q0; q1; q2; q3 |]))
    | _ -> None
  end
  | _ -> None

(* Between is rewritten into its two comparisons before sarg extraction so
   both bounds are visible. *)
let rec expand_between (e : Expr.t) : Expr.t list =
  match e with
  | Between (x, lo, hi) -> [ Expr.Cmp (Ge, x, lo); Expr.Cmp (Le, x, hi) ]
  | And (a, b) -> expand_between a @ expand_between b
  | e -> [ e ]

let sargs e =
  conjuncts e |> List.concat_map expand_between
  |> List.filter_map sarg_of_conjunct

type key_match = {
  eq_prefix : int;
  range_on_next : (Expr.cmp * Expr.t) list;
  matched : Expr.t list;
  residual : Expr.t list;
}

let match_key ~key_fields pred =
  let cs = conjuncts pred |> List.concat_map expand_between in
  let tagged = List.map (fun c -> (c, sarg_of_conjunct c)) cs in
  let eq_on f =
    List.find_map
      (function c, Some (Eq (i, rhs)) when i = f -> Some (c, rhs) | _ -> None)
      tagged
  in
  let ranges_on f =
    List.filter_map
      (function
        | c, Some (Cmp_range (i, op, rhs)) when i = f -> Some (c, (op, rhs))
        | _ -> None)
      tagged
  in
  let rec prefix k matched =
    if k >= Array.length key_fields then (k, matched)
    else
      match eq_on key_fields.(k) with
      | Some (c, _) -> prefix (k + 1) (c :: matched)
      | None -> (k, matched)
  in
  let eq_prefix, matched = prefix 0 [] in
  let range_cs, range_on_next =
    if eq_prefix < Array.length key_fields then
      let rs = ranges_on key_fields.(eq_prefix) in
      (List.map fst rs, List.map snd rs)
    else ([], [])
  in
  let matched = List.rev_append matched range_cs in
  let residual = List.filter (fun c -> not (List.memq c matched)) cs in
  { eq_prefix; range_on_next; matched; residual }

let key_range ?params ~key_fields pred =
  let m = match_key ~key_fields pred in
  if m.eq_prefix = 0 && m.range_on_next = [] then None
  else
    let eq_values =
      Array.init m.eq_prefix (fun k ->
          let f = key_fields.(k) in
          let rhs =
            List.find_map
              (fun c ->
                match sarg_of_conjunct c with
                | Some (Eq (i, rhs)) when i = f -> Some rhs
                | _ -> None)
              m.matched
          in
          match rhs with
          | None -> None
          | Some rhs -> const_value ?params rhs)
    in
    if Array.exists (fun v -> v = None) eq_values then None
    else
      let eq_values = Array.map Option.get eq_values in
      let tighten r (op, rhs) =
        match const_value ?params rhs with
        | None -> r
        | Some v -> begin
          match (op : Expr.cmp) with
          | Ge -> { r with lo = Incl v }
          | Gt -> { r with lo = Excl v }
          | Le -> { r with hi = Incl v }
          | Lt -> { r with hi = Excl v }
          | Eq | Ne -> r
        end
      in
      let range = List.fold_left tighten full_range m.range_on_next in
      Some (eq_values, range)

let key_bounds ~key_fields pred =
  match Option.bind pred (fun p -> key_range ~key_fields p) with
  | None -> (Value.Unbounded, Value.Unbounded)
  | Some (eq, range) ->
    let side = function
      | Unbounded ->
        if Array.length eq = 0 then Value.Unbounded else Value.Incl eq
      | Incl v -> Value.Incl (Array.append eq [| v |])
      | Excl v -> Value.Excl (Array.append eq [| v |])
    in
    (side range.lo, side range.hi)

let selectivity pred =
  let rec sel (e : Expr.t) =
    match e with
    | Const (Bool true) -> 1.0
    | Const (Bool false) -> 0.0
    | And (a, b) -> sel a *. sel b
    | Or (a, b) ->
      let sa = sel a and sb = sel b in
      Float.min 1.0 (sa +. sb -. (sa *. sb))
    | Not a -> 1.0 -. sel a
    | Cmp (Eq, _, _) -> 0.05
    | Cmp (Ne, _, _) -> 0.95
    | Cmp ((Lt | Le | Gt | Ge), _, _) -> 0.3
    | Between _ -> 0.25
    | In_list (_, vs) -> Float.min 0.5 (0.05 *. float_of_int (List.length vs))
    | Is_null _ -> 0.1
    | Like _ -> 0.2
    | Call _ -> 0.1
    | _ -> 0.5
  in
  Float.max 0.0 (Float.min 1.0 (sel pred))
