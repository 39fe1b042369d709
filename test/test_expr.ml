open Dmx_value
open Dmx_expr
open Test_util

let r = emp 7 "Bob" "eng" 100

let t_truth expect expr =
  Alcotest.(check string)
    (Expr.to_string expr) expect
    (Fmt.str "%a" Eval.pp_truth (Eval.truth r expr))

let test_three_valued () =
  t_truth "TRUE" Expr.(eq (field 0) (cint 7));
  t_truth "FALSE" Expr.(eq (field 0) (cint 8));
  t_truth "UNKNOWN" Expr.(eq (field 0) (Const Value.Null));
  (* AND/OR short-circuit truth tables with UNKNOWN *)
  t_truth "FALSE" Expr.(Const Value.Null && fals);
  t_truth "UNKNOWN" Expr.(Const Value.Null && tru);
  t_truth "TRUE" Expr.(Const Value.Null || tru);
  t_truth "UNKNOWN" Expr.(Const Value.Null || fals);
  t_truth "UNKNOWN" Expr.(not_ (Const Value.Null))

let test_null_propagation () =
  Alcotest.check value_testable "arith null"
    Value.Null
    (Eval.eval r Expr.(Arith (Add, Const Value.Null, cint 1)));
  Alcotest.check value_testable "func null" Value.Null
    (Eval.eval r Expr.(Call ("abs", [ Const Value.Null ])));
  Alcotest.(check bool) "is_null" true
    (Eval.test r Expr.(Is_null (Const Value.Null)))

let test_arith () =
  Alcotest.check value_testable "int add" (vi 107)
    (Eval.eval r Expr.(Arith (Add, field 0, field 3)));
  Alcotest.check value_testable "mixed promotes" (vf 8.5)
    (Eval.eval r Expr.(Arith (Add, field 0, cfloat 1.5)));
  Alcotest.check value_testable "concat" (vs "Bobeng")
    (Eval.eval r Expr.(Arith (Add, field 1, field 2)));
  match Eval.eval r Expr.(Arith (Div, cint 1, cint 0)) with
  | exception Eval.Error _ -> ()
  | v -> Alcotest.failf "div by zero gave %a" Value.pp v

let test_like () =
  Alcotest.(check bool) "%" true (Eval.like_match ~pattern:"B%" "Bob");
  Alcotest.(check bool) "_" true (Eval.like_match ~pattern:"B_b" "Bob");
  Alcotest.(check bool) "literal" false (Eval.like_match ~pattern:"bob" "Bob");
  Alcotest.(check bool) "%%x" true (Eval.like_match ~pattern:"%o%" "Bob");
  Alcotest.(check bool) "empty pattern" false (Eval.like_match ~pattern:"" "x");
  Alcotest.(check bool) "both empty" true (Eval.like_match ~pattern:"" "");
  (* many '%' must not backtrack exponentially: this finishes at once *)
  let pattern = "%" ^ String.concat "" (List.init 12 (fun _ -> "a%")) ^ "b" in
  Alcotest.(check bool) "many %" false
    (Eval.like_match ~pattern (String.make 40 'a'))

let test_in_between () =
  Alcotest.(check bool) "in hit" true
    (Eval.test r Expr.(In_list (field 0, [ vi 1; vi 7 ])));
  t_truth "UNKNOWN" Expr.(In_list (field 0, [ vi 1; Value.Null ]));
  t_truth "TRUE" Expr.(In_list (field 0, [ vi 7; Value.Null ]));
  Alcotest.(check bool) "between" true
    (Eval.test r Expr.(Between (field 3, cint 50, cint 150)))

let test_params () =
  Alcotest.(check bool) "param" true
    (Eval.test ~params:[| vi 7 |] r Expr.(eq (field 0) (Param 0)))

let test_spatial_funcs () =
  let encl a = Expr.Call ("encloses", a) in
  Alcotest.(check bool) "encloses yes" true
    (Eval.test [||]
       (encl
          Expr.[
            cfloat 0.; cfloat 0.; cfloat 10.; cfloat 10.;
            cfloat 1.; cfloat 1.; cfloat 2.; cfloat 2.;
          ]));
  Alcotest.(check bool) "encloses no" false
    (Eval.test [||]
       (encl
          Expr.[
            cfloat 0.; cfloat 0.; cfloat 10.; cfloat 10.;
            cfloat 5.; cfloat 5.; cfloat 20.; cfloat 6.;
          ]))

let test_expr_codec () =
  let s = emp_schema in
  let exprs =
    [
      Parse.parse_exn s "id = 7 AND salary > 50";
      Parse.parse_exn s "name LIKE 'B%' OR dept IN ('eng','ops')";
      Parse.parse_exn s "salary BETWEEN 1 AND 100 AND NOT (id IS NULL)";
      Parse.parse_exn s "abs(salary - 200) < ?0";
    ]
  in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Expr.to_string e) true
        (Expr.equal e (Expr.decode (Expr.encode e))))
    exprs

let test_parse_eval () =
  let s = emp_schema in
  let t src expect =
    Alcotest.(check bool) src expect (Eval.test r (Parse.parse_exn s src))
  in
  t "id = 7" true;
  t "ID = 7" true;
  t "id <> 7" false;
  t "salary >= 100 AND dept = 'eng'" true;
  t "name LIKE 'B_b'" true;
  t "salary / 2 = 50" true;
  t "salary % 7 = 2" true;
  t "-salary < 0" true;
  t "id IN (1, 2, 7)" true;
  t "name IS NOT NULL" true;
  t "NOT name IS NULL" true;
  t "lower(name) = 'bob'" true;
  t "(id = 1 OR id = 7) AND salary BETWEEN 99 AND 101" true

let test_parse_errors () =
  let s = emp_schema in
  List.iter
    (fun src ->
      match Parse.parse s src with
      | Error _ -> ()
      | Ok e -> Alcotest.failf "parsed %S as %s" src (Expr.to_string e))
    [ "nosuchcol = 1"; "id = "; "id = 'unterminated"; "id ="; "(id = 1"; "id = 1 extra" ]

let test_conjuncts_sargs () =
  let s = emp_schema in
  let e = Parse.parse_exn s "id = 7 AND salary > 50 AND name LIKE 'B%'" in
  Alcotest.(check int) "conjuncts" 3 (List.length (Analyze.conjuncts e));
  let sargs = Analyze.sargs e in
  Alcotest.(check int) "sargs" 2 (List.length sargs);
  (* reversed orientation *)
  let e2 = Parse.parse_exn s "7 = id" in
  match Analyze.sargs e2 with
  | [ Analyze.Eq (0, _) ] -> ()
  | _ -> Alcotest.fail "flipped equality not recognised"

let test_match_key () =
  let s = emp_schema in
  let key_fields = [| 2; 0 |] in
  (* dept, id composed key *)
  let m =
    Analyze.match_key ~key_fields
      (Parse.parse_exn s "dept = 'eng' AND id > 3 AND salary > 10")
  in
  Alcotest.(check int) "eq prefix" 1 m.Analyze.eq_prefix;
  Alcotest.(check int) "range bounds" 1 (List.length m.Analyze.range_on_next);
  Alcotest.(check int) "residual" 1 (List.length m.Analyze.residual);
  match
    Analyze.key_range ~key_fields
      (Parse.parse_exn s "dept = 'eng' AND id > 3 AND salary > 10")
  with
  | Some (eq, range) ->
    Alcotest.(check int) "eq len" 1 (Array.length eq);
    Alcotest.(check bool) "lo bound" true (range.Analyze.lo <> Analyze.Unbounded)
  | None -> Alcotest.fail "no key range"

let test_encloses_sarg () =
  (* encloses(consts..., rect fields) recognised for R-tree relevance *)
  let e =
    Expr.Call
      ( "encloses",
        Expr.[
          cfloat 0.; cfloat 0.; cfloat 1.; cfloat 1.;
          field 1; field 2; field 3; field 4;
        ] )
  in
  match Analyze.sarg_of_conjunct e with
  | Some (Analyze.Encloses (fields, _)) ->
    Alcotest.(check (array int)) "rect fields" [| 1; 2; 3; 4 |] fields
  | _ -> Alcotest.fail "encloses not recognised"

let test_selectivity () =
  let s = emp_schema in
  let sel src = Analyze.selectivity (Parse.parse_exn s src) in
  Alcotest.(check bool) "eq < range" true (sel "id = 1" < sel "id > 1");
  Alcotest.(check bool) "and tightens" true (sel "id = 1 AND salary > 2" < sel "id = 1");
  Alcotest.(check bool) "bounded" true (sel "id = 1 OR salary > 2" <= 1.0)

let suite =
  [
    Alcotest.test_case "three-valued logic" `Quick test_three_valued;
    Alcotest.test_case "null propagation" `Quick test_null_propagation;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "LIKE matching" `Quick test_like;
    Alcotest.test_case "IN / BETWEEN" `Quick test_in_between;
    Alcotest.test_case "parameters" `Quick test_params;
    Alcotest.test_case "spatial builtins" `Quick test_spatial_funcs;
    Alcotest.test_case "expr codec roundtrip" `Quick test_expr_codec;
    Alcotest.test_case "parse + eval" `Quick test_parse_eval;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "conjuncts and sargs" `Quick test_conjuncts_sargs;
    Alcotest.test_case "composed-key matching" `Quick test_match_key;
    Alcotest.test_case "ENCLOSES recognition" `Quick test_encloses_sarg;
    Alcotest.test_case "selectivity heuristics" `Quick test_selectivity;
  ]
