(* Property tests for the expression layer: codec roundtrips, parameter
   substitution, analysis invariants. *)
open Dmx_value
open Dmx_expr

(* random expression generator over a 4-field record (int, string, int, int) *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Expr.Const (Value.int n)) (int_range (-100) 100);
        map (fun s -> Expr.Const (Value.String s)) (string_size (int_range 0 6));
        return (Expr.Const Value.Null);
        map (fun b -> Expr.Const (Value.Bool b)) bool;
        map (fun i -> Expr.Field i) (int_range 0 3);
        map (fun i -> Expr.Param i) (int_range 0 2);
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        oneof
          [
            leaf;
            map2 (fun a b -> Expr.And (a, b)) (self (depth - 1)) (self (depth - 1));
            map2 (fun a b -> Expr.Or (a, b)) (self (depth - 1)) (self (depth - 1));
            map (fun a -> Expr.Not a) (self (depth - 1));
            map3
              (fun c a b -> Expr.Cmp (c, a, b))
              (oneofl [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ])
              (self (depth - 1))
              (self (depth - 1));
            map (fun a -> Expr.Is_null a) (self (depth - 1));
            map3
              (fun op a b -> Expr.Arith (op, a, b))
              (oneofl [ Expr.Add; Expr.Sub; Expr.Mul ])
              (self (depth - 1))
              (self (depth - 1));
            map2 (fun a p -> Expr.Like (a, p)) (self (depth - 1))
              (string_size (int_range 0 5));
            map2
              (fun a vs -> Expr.In_list (a, vs))
              (self (depth - 1))
              (list_size (int_range 0 3) (map Value.int (int_range 0 9)));
            map3
              (fun a b c -> Expr.Between (a, b, c))
              (self (depth - 1))
              (self (depth - 1))
              (self (depth - 1));
            map
              (fun args -> Expr.Call ("abs", args))
              (map (fun a -> [ a ]) (self (depth - 1)));
          ])
    3

let arb_expr = QCheck.make gen_expr ~print:Expr.to_string

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"expr codec roundtrip" ~count:300 arb_expr (fun e ->
      Expr.equal e (Expr.decode (Expr.encode e)))

let sample_record = [| Value.int 5; Value.String "abc"; Value.Null; Value.int 9 |]
let params = [| Value.int 7; Value.String "p"; Value.Null |]

(* evaluating with explicit params = evaluating the substituted expression *)
let prop_subst_params =
  QCheck.Test.make ~name:"subst_params preserves evaluation" ~count:300
    arb_expr (fun e ->
      let direct =
        match Eval.eval ~params sample_record e with
        | v -> Ok v
        | exception Eval.Error m -> Error m
      in
      let substituted =
        match Eval.eval sample_record (Expr.subst_params params e) with
        | v -> Ok v
        | exception Eval.Error m -> Error m
      in
      match direct, substituted with
      | Ok a, Ok b -> Value.equal a b
      | Error _, Error _ -> true
      | _ -> false)

(* evaluation is deterministic *)
let prop_eval_deterministic =
  QCheck.Test.make ~name:"evaluation is deterministic" ~count:200 arb_expr
    (fun e ->
      let run () =
        match Eval.truth ~params sample_record e with
        | t -> Some t
        | exception Eval.Error _ -> None
      in
      run () = run ())

(* conjoin . conjuncts is semantically the identity *)
let prop_conjuncts_conjoin =
  QCheck.Test.make ~name:"conjoin(conjuncts e) evaluates like e" ~count:200
    arb_expr (fun e ->
      match Analyze.conjoin (Analyze.conjuncts e) with
      | None -> false
      | Some e' ->
        let run x =
          match Eval.truth ~params sample_record x with
          | t -> Some t
          | exception Eval.Error _ -> None
        in
        run e = run e')

let prop_selectivity_bounded =
  QCheck.Test.make ~name:"selectivity in [0,1]" ~count:300 arb_expr (fun e ->
      let s = Analyze.selectivity e in
      s >= 0.0 && s <= 1.0)

(* fields_used is sound: evaluation touches only listed fields *)
let prop_fields_used_sound =
  QCheck.Test.make ~name:"fields_used covers evaluation" ~count:200 arb_expr
    (fun e ->
      let used = Expr.fields_used e in
      (* poison unused fields; evaluation outcome must not change *)
      let poisoned =
        Array.mapi
          (fun i v -> if List.mem i used then v else Value.String "POISON")
          sample_record
      in
      let run r =
        match Eval.truth ~params r e with
        | t -> Fmt.str "%a" Eval.pp_truth t
        | exception Eval.Error _ -> "error"
      in
      run sample_record = run poisoned)

(* NOT flips truth and preserves UNKNOWN *)
let prop_not_involution =
  QCheck.Test.make ~name:"NOT is an involution on truth" ~count:200 arb_expr
    (fun e ->
      let t x =
        match Eval.truth ~params sample_record x with
        | v -> Some v
        | exception Eval.Error _ -> None
      in
      match t e, t (Expr.Not (Expr.Not e)) with
      | Some a, Some b -> a = b
      | None, None -> true
      | _ -> false)

(* The span matcher: on the supported scan-filter shape (conjunctions of
   [Field <op> Const] with schema-matching constant types), the verdict
   computed directly on the encoded payload must agree with [Eval.test] on
   the decoded record — including NULL fields, int64 sign/magnitude
   corners, strings of 127-300 bytes (most of whose lengths are two-byte
   varints, off the stages' one-byte fast path) whether skipped or compared, a
   predicate whose only conjunct is on the last field, and two conjuncts
   on one int field. *)
let long_strs =
  List.map
    (fun (n, tail) -> String.make n 'a' ^ tail)
    [ (127, ""); (127, "b"); (128, ""); (200, "a"); (200, "b"); (299, "") ]

let gen_span_case =
  let open QCheck.Gen in
  let op = oneofl [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] in
  let small_int =
    frequency
      [
        (6, int_range (-100) 100);
        (1, oneofl [ min_int; max_int; -1; 0; 1; 0x7FFF_FFFF; -0x8000_0000 ]);
      ]
  in
  let small_str =
    frequency
      [
        (3, string_size (int_range 0 4));
        (1, oneofl [ ""; "d3"; "zz" ]);
        (2, oneofl long_strs);
      ]
  in
  let int_conj i =
    map2
      (fun o n -> Expr.Cmp (o, Expr.Field i, Expr.Const (Value.int n)))
      op small_int
  in
  let conj =
    oneof
      [
        int_conj 0;
        int_conj 3;
        map3
          (fun i o s ->
            Expr.Cmp (o, Expr.Field i, Expr.Const (Value.String s)))
          (oneofl [ 1; 2 ]) op small_str;
      ]
  in
  let pred =
    frequency
      [
        ( 4,
          map
            (fun cs ->
              match cs with
              | [] -> assert false
              | c :: tl -> List.fold_left (fun acc c -> Expr.And (acc, c)) c tl)
            (list_size (int_range 1 4) conj) );
        (1, int_conj 3);
        (1, map2 (fun a b -> Expr.And (a, b)) (int_conj 0) (int_conj 0));
      ]
  in
  let value_or_null g = frequency [ (4, g); (1, return Value.Null) ] in
  let record =
    let iv = value_or_null (map Value.int small_int) in
    let sv = value_or_null (map (fun s -> Value.String s) small_str) in
    map (fun (a, b, c, d) -> [| a; b; c; d |]) (tup4 iv sv sv iv)
  in
  pair pred record

(* A schema with every column type, so float and bool fields (always
   [Sf_checks]) and several conjuncts on one int or string field are
   generated: id INT NOT NULL, score FLOAT, flag BOOL, tag STRING. *)
let mixed_schema =
  Schema.make_exn
    [
      Schema.column ~nullable:false "id" Value.Tint;
      Schema.column "score" Value.Tfloat;
      Schema.column "flag" Value.Tbool;
      Schema.column "tag" Value.Tstring;
    ]

let gen_span_mixed =
  let open QCheck.Gen in
  let op = oneofl [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] in
  let small_int =
    frequency
      [ (6, int_range (-5) 5); (1, oneofl [ min_int; max_int; -0x8000_0000 ]) ]
  in
  let small_float =
    frequency
      [
        (6, map float_of_int (int_range (-5) 5));
        (1, oneofl [ -0.; 0.5; Float.nan; Float.infinity; Float.neg_infinity ]);
      ]
  in
  let small_str = string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_range 0 3) in
  let cmp i o v = Expr.Cmp (o, Expr.Field i, Expr.Const v) in
  let conj =
    oneof
      [
        map2 (fun o n -> cmp 0 o (Value.int n)) op small_int;
        map2 (fun o f -> cmp 1 o (Value.Float f)) op small_float;
        map2 (fun o b -> cmp 2 o (Value.Bool b)) op bool;
        map2 (fun o t -> cmp 3 o (Value.String t)) op small_str;
      ]
  in
  let pred =
    map
      (fun cs ->
        match cs with
        | [] -> assert false
        | c :: tl -> List.fold_left (fun acc c -> Expr.And (acc, c)) c tl)
      (list_size (int_range 1 5) conj)
  in
  let value_or_null g = frequency [ (4, g); (1, return Value.Null) ] in
  let record =
    map
      (fun (a, b, c, d) -> [| Value.int a; b; c; d |])
      (tup4 small_int
         (value_or_null (map (fun f -> Value.Float f) small_float))
         (value_or_null (map (fun b -> Value.Bool b) bool))
         (value_or_null (map (fun t -> Value.String t) small_str)))
  in
  pair pred record

let arb_span gen =
  QCheck.make gen ~print:(fun (e, r) ->
      Fmt.str "%s on %a" (Expr.to_string e) Fmt.(Dump.array Value.pp) r)

let span_matcher schema e =
  match Eval.compile_span schema e with
  | None -> QCheck.Test.fail_report "span-compilable shape was rejected"
  | Some f -> f

(* On the whole encoded record the matcher answers, and agrees with
   [Eval.test]. *)
let span_agrees schema (e, r) =
  let f = span_matcher schema e in
  let payload = Bytes.to_string (Codec.encode_record r) in
  match f payload ~pos:0 ~len:(String.length payload) with
  | None -> QCheck.Test.fail_report "schema-shaped payload must not fall back"
  | Some keep -> keep = Eval.test r e

let prop_span_matcher_equiv =
  QCheck.Test.make ~name:"span matcher agrees with test on encoded payloads"
    ~count:1000 (arb_span gen_span_case) (span_agrees Test_util.emp_schema)

let prop_span_matcher_mixed =
  QCheck.Test.make
    ~name:"span matcher agrees with test on float and bool columns"
    ~count:1000 (arb_span gen_span_mixed) (span_agrees mixed_schema)

(* On every prefix of an encoded record the matcher answers [None] or the
   whole record's verdict: it stops at the first false conjunct, and it
   never reads past the span it is given. Each prefix sits between other
   bytes, so a read outside it would see them instead of the record. *)
let prop_span_matcher_prefix =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map (fun c -> (Test_util.emp_schema, c)) gen_span_case;
          map (fun c -> (mixed_schema, c)) gen_span_mixed;
        ])
  in
  QCheck.Test.make
    ~name:"span matcher on a truncated payload: None or the verdict"
    ~count:500
    (QCheck.make gen ~print:(fun (_, (e, r)) ->
         Fmt.str "%s on %a" (Expr.to_string e) Fmt.(Dump.array Value.pp) r))
    (fun (schema, (e, r)) ->
      let f = span_matcher schema e in
      let verdict = Eval.test r e in
      let payload = Bytes.to_string (Codec.encode_record r) in
      let n = String.length payload in
      let rec every k =
        k > n
        ||
        let framed = "\x04\x7f" ^ String.sub payload 0 k ^ "\xff\x02\x01" in
        match f framed ~pos:2 ~len:k with
        | None -> every (k + 1)
        | Some keep when keep = verdict -> every (k + 1)
        | Some keep ->
          QCheck.Test.fail_reportf "prefix of %d of %d bytes: %b, record: %b" k
            n keep verdict
      in
      every 0)

(* A schema of 130 columns, so a record's field count is a two-byte
   varint: the matcher reads it off its one-byte fast path, agrees with
   [Eval.test] on conjuncts at the first, a middle and the last field, and
   answers [None] or the verdict on every prefix of the payload. *)
let test_span_two_byte_field_count () =
  let n = 130 in
  let schema =
    Schema.make_exn
      (List.init n (fun i ->
           Schema.column (Fmt.str "c%d" i)
             (if i mod 3 = 1 then Value.Tstring else Value.Tint)))
  in
  let record k =
    Array.init n (fun i ->
        if i mod 3 = 1 then Value.String (String.make (i mod 7) 'x')
        else Value.int (i + k))
  in
  let preds =
    [
      "c0 = 0"; "c0 > 0"; "c63 = 63"; "c63 <> 63"; "c64 = 'x'";
      "c129 = 129"; "c129 >= 130"; "c0 = 0 AND c64 = 'x' AND c129 > 0";
      "c0 = 0 AND c64 = 'xx' AND c129 > 0"; "c127 = 'x' AND c128 < 129";
    ]
  in
  Alcotest.(check bool) "the field count takes two bytes" true
    (Char.code (Bytes.get (Codec.encode_record (record 0)) 0) >= 0x80);
  List.iter
    (fun src ->
      let e = Parse.parse_exn schema src in
      let f =
        match Eval.compile_span schema e with
        | Some f -> f
        | None -> Alcotest.failf "%s: span-compilable shape was rejected" src
      in
      List.iter
        (fun k ->
          let r = record k in
          let verdict = Eval.test r e in
          let payload = Bytes.to_string (Codec.encode_record r) in
          let len = String.length payload in
          Alcotest.(check (option bool))
            (Fmt.str "%s on record %d" src k) (Some verdict)
            (f payload ~pos:0 ~len);
          for cut = 0 to len - 1 do
            match f payload ~pos:0 ~len:cut with
            | None -> ()
            | Some keep ->
              Alcotest.(check bool)
                (Fmt.str "%s on a %d-byte prefix" src cut) verdict keep
          done)
        [ 0; 1 ])
    preds;
  (* a payload of one field fewer is off the schema *)
  let short =
    Bytes.to_string (Codec.encode_record (Array.sub (record 0) 0 (n - 1)))
  in
  let f =
    Option.get (Eval.compile_span schema (Parse.parse_exn schema "c0 = 0"))
  in
  Alcotest.(check (option bool)) "a 129-field payload falls back" None
    (f short ~pos:0 ~len:(String.length short))

(* Every operator between every pair of [long_strs], compared (field 2)
   and skipped (field 1) with each: strings whose two-byte lengths take the
   stages' general path agree with [Eval.test] whatever the other
   conjuncts' verdicts would hide. *)
let test_span_long_strings () =
  let schema = Test_util.emp_schema in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun op ->
              let e =
                Expr.And
                  ( Expr.Cmp (op, Expr.Field 2, Expr.Const (Value.String b)),
                    Expr.Cmp (Expr.Ge, Expr.Field 3, Expr.Const (Value.int 0)) )
              in
              let r =
                [| Value.int 1; Value.String a; Value.String a; Value.int 5 |]
              in
              let payload = Bytes.to_string (Codec.encode_record r) in
              let f = Option.get (Eval.compile_span schema e) in
              Alcotest.(check (option bool))
                (Expr.to_string e) (Some (Eval.test r e))
                (f payload ~pos:0 ~len:(String.length payload)))
            [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ])
        long_strs)
    long_strs

(* LIKE against a dynamic-programming reference: [m.(i).(j)] holds when
   [pattern.[i..]] matches [s.[j..]]. *)
let like_reference ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let m = Array.make_matrix (np + 1) (ns + 1) false in
  m.(np).(ns) <- true;
  for i = np - 1 downto 0 do
    for j = ns downto 0 do
      m.(i).(j) <-
        (match pattern.[i] with
        | '%' -> m.(i + 1).(j) || (j < ns && m.(i).(j + 1))
        | '_' -> j < ns && m.(i + 1).(j + 1)
        | c -> j < ns && s.[j] = c && m.(i + 1).(j + 1))
    done
  done;
  m.(0).(0)

let prop_like_matches_reference =
  let word n = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) n) in
  QCheck.Test.make ~name:"like_match agrees with a DP reference" ~count:1000
    QCheck.(
      make
        Gen.(pair (word (int_range 0 8)) (word (int_range 0 10)))
        ~print:(fun (p, s) -> Fmt.str "%S LIKE %S" s p))
    (fun (pattern, s) ->
      Eval.like_match ~pattern s = like_reference ~pattern s)

(* the predicate parser never crashes: any input yields Ok or Error *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser is total" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 40) Gen.printable)
    (fun src ->
      let schema = Test_util.emp_schema in
      match Parse.parse schema src with
      | Ok _ | Error _ -> true)

(* parsed expressions survive the codec *)
let prop_parse_then_codec =
  QCheck.Test.make ~name:"parse -> codec roundtrip" ~count:200
    QCheck.(
      make
        Gen.(
          oneofl
            [
              "id = 7"; "salary > 100 AND dept = 'eng'";
              "name LIKE 'a%' OR id IN (1,2,3)";
              "salary BETWEEN 1 AND 9 AND NOT (id IS NULL)";
              "abs(salary) - 3 * id >= ?0";
              "lower(name) = 'x' AND (id = 1 OR id = 2)";
            ]))
    (fun src ->
      match Parse.parse Test_util.emp_schema src with
      | Error _ -> false
      | Ok e -> Expr.equal e (Expr.decode (Expr.encode e)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_parser_total;
    QCheck_alcotest.to_alcotest prop_parse_then_codec;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_subst_params;
    QCheck_alcotest.to_alcotest prop_eval_deterministic;
    QCheck_alcotest.to_alcotest prop_conjuncts_conjoin;
    QCheck_alcotest.to_alcotest prop_selectivity_bounded;
    QCheck_alcotest.to_alcotest prop_fields_used_sound;
    QCheck_alcotest.to_alcotest prop_not_involution;
    QCheck_alcotest.to_alcotest prop_span_matcher_equiv;
    QCheck_alcotest.to_alcotest prop_span_matcher_mixed;
    QCheck_alcotest.to_alcotest prop_span_matcher_prefix;
    Alcotest.test_case "span matcher over a two-byte field count" `Quick
      test_span_two_byte_field_count;
    Alcotest.test_case "span matcher on strings with two-byte lengths" `Quick
      test_span_long_strings;
    QCheck_alcotest.to_alcotest prop_like_matches_reference;
  ]
