open Dmx_value
open Test_util

let test_compare_ordering () =
  Alcotest.(check bool) "null < int" true (Value.compare Value.Null (vi 1) < 0);
  Alcotest.(check bool) "int order" true (Value.compare (vi 1) (vi 2) < 0);
  Alcotest.(check bool)
    "cross-type by rank" true
    (Value.compare (vb true) (vi 0) < 0);
  Alcotest.(check bool) "string order" true (Value.compare (vs "a") (vs "b") < 0);
  Alcotest.(check int) "equal" 0 (Value.compare (vf 1.5) (vf 1.5))

let test_has_type () =
  Alcotest.(check bool) "null in every domain" true
    (Value.has_type Value.Tint Value.Null);
  Alcotest.(check bool) "int is int" true (Value.has_type Value.Tint (vi 3));
  Alcotest.(check bool) "string not int" false
    (Value.has_type Value.Tint (vs "x"))

let test_ty_roundtrip () =
  List.iter
    (fun ty ->
      Alcotest.(check bool)
        "ty roundtrip" true
        (Value.ty_of_string (Value.ty_to_string ty) = Some ty))
    [ Value.Tbool; Value.Tint; Value.Tfloat; Value.Tstring ]

let check_unit_ok = function
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_schema_validate () =
  let s = emp_schema in
  Alcotest.(check int) "arity" 4 (Schema.arity s);
  Alcotest.(check (option int)) "find id" (Some 0) (Schema.field_index s "ID");
  check_unit_ok (Schema.validate_record s (emp 1 "a" "d" 10));
  (match Schema.validate_record s [| vi 1; vs "a"; vs "d" |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "arity mismatch accepted");
  (match Schema.validate_record s [| Value.Null; vs "a"; vs "d"; vi 1 |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "NOT NULL violated");
  match Schema.validate_record s [| vs "x"; vs "a"; vs "d"; vi 1 |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "type mismatch accepted"

let test_schema_dups () =
  match Schema.make [ Schema.column "a" Value.Tint; Schema.column "A" Value.Tint ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate (case-insensitive) columns accepted"

let test_codec_roundtrip () =
  let r = [| Value.Null; vb false; vi (-42); vf 3.25; vs "héllo" |] in
  Alcotest.check record_testable "record roundtrip" r
    (Codec.decode_record (Codec.encode_record r));
  let s = emp_schema in
  Alcotest.(check bool) "schema roundtrip" true
    (Schema.equal s (Codec.decode_schema (Codec.encode_schema s)))

let test_varint () =
  let e = Codec.Enc.create () in
  List.iter (Codec.Enc.varint e) [ 0; 1; 127; 128; 300; 1 lsl 20; 1 lsl 40 ];
  let d = Codec.Dec.of_string (Codec.Enc.to_string e) in
  List.iter
    (fun expect -> Alcotest.(check int) "varint" expect (Codec.Dec.varint d))
    [ 0; 1; 127; 128; 300; 1 lsl 20; 1 lsl 40 ];
  Alcotest.(check bool) "consumed" true (Codec.Dec.at_end d)

let test_record_key () =
  let k1 = Record_key.rid ~page:3 ~slot:7 in
  let k2 = Record_key.fields [| vi 1; vs "x" |] in
  Alcotest.check key_testable "rid roundtrip" k1 (Record_key.decode (Record_key.encode k1));
  Alcotest.check key_testable "fields roundtrip" k2
    (Record_key.decode (Record_key.encode k2));
  Alcotest.(check bool) "ordering rid<fields" true (Record_key.compare k1 k2 < 0)

let test_project () =
  let r = emp 7 "bob" "eng" 100 in
  Alcotest.check record_testable "project" [| vs "bob"; vi 7 |]
    (Record.project r [| 1; 0 |])

(* Values weighted toward the edges of [Value.compare]: NaN, signed zeros
   and infinities, the int64 extremes, Null and mixed types, and strings
   that are empty or hold NUL or bytes >= 0x80. *)
let gen_value =
  let open QCheck.Gen in
  let int =
    oneof
      [
        oneofl [ Int64.min_int; Int64.max_int; 0L; -1L; 1L ];
        map Int64.of_int small_signed_int;
        map Int64.of_int int;
      ]
  in
  let float =
    oneof
      [
        oneofl
          [
            Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity;
            Float.min_float; -.Float.max_float; 1.5; -1.5;
          ];
        float;
      ]
  in
  let str =
    string_size
      ~gen:(oneofl [ '\000'; '\001'; 'a'; 'b'; '\x7f'; '\x80'; '\xff' ])
      (int_range 0 5)
  in
  frequency
    [
      (1, pure Value.Null);
      (1, map (fun b -> Value.Bool b) bool);
      (3, map (fun i -> Value.Int i) int);
      (3, map (fun f -> Value.Float f) float);
      (3, map (fun s -> Value.String s) str);
    ]

let sign c = Int.compare c 0

let prop_compare_value =
  let pair =
    QCheck.Gen.(
      frequency
        [ (3, pair gen_value gen_value); (1, map (fun v -> (v, v)) gen_value) ])
  in
  QCheck.Test.make ~name:"in-place compare agrees with Value.compare"
    ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> Value.to_string a ^ " vs " ^ Value.to_string b)
       pair)
    (fun (a, b) ->
      let e = Codec.Enc.create () in
      Codec.Enc.value e a;
      Codec.Enc.byte e 0xaa;
      let d = Codec.Dec.of_string (Codec.Enc.to_string e) in
      sign (Codec.Dec.compare_value d b) = sign (Value.compare a b)
      && Codec.Dec.remaining d = 1)

let suite =
  [
    Alcotest.test_case "value compare ordering" `Quick test_compare_ordering;
    Alcotest.test_case "value has_type" `Quick test_has_type;
    Alcotest.test_case "ty roundtrip" `Quick test_ty_roundtrip;
    Alcotest.test_case "schema validate" `Quick test_schema_validate;
    Alcotest.test_case "schema duplicate columns" `Quick test_schema_dups;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "varint" `Quick test_varint;
    Alcotest.test_case "record key" `Quick test_record_key;
    Alcotest.test_case "record project" `Quick test_project;
    QCheck_alcotest.to_alcotest prop_compare_value;
  ]
