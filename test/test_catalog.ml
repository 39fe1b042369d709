open Dmx_value
open Dmx_catalog
open Test_util

let test_attrlist () =
  let specs =
    [
      Attrlist.spec ~required:true "fields" Attrlist.A_string;
      Attrlist.spec "unique" Attrlist.A_bool;
      Attrlist.spec "buckets" Attrlist.A_int;
    ]
  in
  (match Attrlist.validate specs [ ("fields", "a,b"); ("unique", "true") ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Attrlist.validate specs [ ("unique", "yes") ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing required accepted");
  (match Attrlist.validate specs [ ("fields", "a"); ("nosuch", "1") ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown attr accepted");
  (match Attrlist.validate specs [ ("fields", "a"); ("buckets", "many") ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad int accepted");
  (match Attrlist.validate specs [ ("fields", "a"); ("FIELDS", "b") ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate attr accepted");
  Alcotest.(check (option string)) "case-insensitive find" (Some "a,b")
    (Attrlist.find [ ("Fields", "a,b") ] "fields");
  (match Attrlist.get_bool [ ("unique", "1") ] "unique" with
  | Ok (Some true) -> ()
  | _ -> Alcotest.fail "bool forms");
  (* codec *)
  let l = [ ("k1", "v1"); ("k2", "") ] in
  let e = Codec.Enc.create () in
  Attrlist.enc e l;
  Alcotest.(check bool) "roundtrip" true
    (Attrlist.dec (Codec.Dec.of_string (Codec.Enc.to_string e)) = l)

let mk_desc () =
  let d =
    Descriptor.make ~rel_id:7 ~rel_name:"emp" ~schema:emp_schema ~smethod_id:2
      ~smethod_desc:"smd"
  in
  Descriptor.set_attachment_desc d 0 (Some "slot0");
  Descriptor.set_attachment_desc d 5 (Some "slot5");
  d

let test_descriptor_layout () =
  let d = mk_desc () in
  Alcotest.(check (list int)) "present slots ascending" [ 0; 5 ]
    (Descriptor.attachment_types_present d);
  Alcotest.(check (option string)) "slot read" (Some "slot5")
    (Descriptor.attachment_desc d 5);
  Alcotest.(check (option string)) "empty slot is NULL" None
    (Descriptor.attachment_desc d 3);
  let v0 = d.Descriptor.version in
  Descriptor.set_attachment_desc d 5 None;
  Alcotest.(check bool) "version bumps on slot change" true
    (d.Descriptor.version > v0);
  let v1 = d.Descriptor.version in
  Descriptor.set_smethod_desc d "smd2";
  Alcotest.(check int) "smethod desc change does not bump" v1
    d.Descriptor.version;
  (* out-of-range slots are rejected (the paper's few-dozen cap) *)
  match Descriptor.attachment_desc d Descriptor.max_attachment_types with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "slot beyond cap accepted"

let test_descriptor_codec () =
  let d = mk_desc () in
  d.Descriptor.version <- 42;
  let e = Codec.Enc.create () in
  Descriptor.enc e d;
  let d' = Descriptor.dec (Codec.Dec.of_string (Codec.Enc.to_string e)) in
  Alcotest.(check int) "rel_id" d.Descriptor.rel_id d'.Descriptor.rel_id;
  Alcotest.(check string) "name" d.Descriptor.rel_name d'.Descriptor.rel_name;
  Alcotest.(check int) "version" 42 d'.Descriptor.version;
  Alcotest.(check string) "smethod desc" "smd" d'.Descriptor.smethod_desc;
  Alcotest.(check bool) "schema" true
    (Schema.equal d.Descriptor.schema d'.Descriptor.schema);
  Alcotest.(check (list int)) "slots" [ 0; 5 ]
    (Descriptor.attachment_types_present d')

let test_catalog_crud () =
  let c = Catalog.create () in
  let d1 =
    match
      Catalog.add_relation c ~rel_name:"emp" ~schema:emp_schema ~smethod_id:0
        ~smethod_desc:""
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  (match
     Catalog.add_relation c ~rel_name:"EMP" ~schema:emp_schema ~smethod_id:0
       ~smethod_desc:""
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "case-insensitive duplicate accepted");
  Alcotest.(check bool) "find by name" true (Catalog.find c "Emp" <> None);
  Alcotest.(check bool) "find by id" true
    (Catalog.find_by_id c d1.Descriptor.rel_id <> None);
  (match Catalog.remove_relation c d1.Descriptor.rel_id with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "gone" true (Catalog.find c "emp" = None);
  match Catalog.remove_relation c 999 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "removing unknown relation"

let test_catalog_persistence () =
  let path = Filename.temp_file "dmx_cat" ".dmx" in
  Sys.remove path;
  let c = Catalog.create ~path () in
  let d =
    match
      Catalog.add_relation c ~rel_name:"emp" ~schema:emp_schema ~smethod_id:3
        ~smethod_desc:"xyz"
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  Catalog.set_attachment_slot c ~rel_id:d.Descriptor.rel_id ~slot:2
    (Some "att2");
  Catalog.save c;
  let c2 = Catalog.load ~path in
  (match Catalog.find c2 "emp" with
  | Some d' ->
    Alcotest.(check string) "smethod desc" "xyz" d'.Descriptor.smethod_desc;
    Alcotest.(check (option string)) "slot" (Some "att2")
      (Descriptor.attachment_desc d' 2)
  | None -> Alcotest.fail "relation lost");
  Alcotest.(check int) "next id continues" (d.Descriptor.rel_id + 1)
    (Catalog.next_rel_id c2);
  Sys.remove path

let test_catalog_op_codec_and_undo () =
  let c = Catalog.create () in
  let d =
    match
      Catalog.add_relation c ~rel_name:"emp" ~schema:emp_schema ~smethod_id:0
        ~smethod_desc:""
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let rel_id = d.Descriptor.rel_id in
  (* op codec roundtrips *)
  let ops =
    [
      Catalog.Create_rel (Descriptor.copy d);
      Catalog.Drop_rel (Descriptor.copy d);
      Catalog.Set_attachment
        { rel_id; slot = 3; old_desc = None; new_desc = Some "n" };
      Catalog.Set_smethod { rel_id; old_desc = "o"; new_desc = "n" };
    ]
  in
  List.iter
    (fun op ->
      let op' = Catalog.decode_op (Catalog.encode_op op) in
      match op, op' with
      | Catalog.Create_rel a, Catalog.Create_rel b
      | Catalog.Drop_rel a, Catalog.Drop_rel b ->
        Alcotest.(check int) "rel id" a.Descriptor.rel_id b.Descriptor.rel_id
      | ( Catalog.Set_attachment
            { rel_id = r1; slot = s1; old_desc = o1; new_desc = n1 },
          Catalog.Set_attachment
            { rel_id = r2; slot = s2; old_desc = o2; new_desc = n2 } ) ->
        Alcotest.(check bool) "set_attachment" true
          (r1 = r2 && s1 = s2 && o1 = o2 && n1 = n2)
      | Catalog.Set_smethod a, Catalog.Set_smethod b ->
        Alcotest.(check bool) "set_smethod" true
          (a.rel_id = b.rel_id && a.old_desc = b.old_desc
          && a.new_desc = b.new_desc)
      | _ -> Alcotest.fail "op kind changed")
    ops;
  (* undo Create_rel removes (and tolerates being re-run) *)
  Catalog.undo_op c (Catalog.Create_rel (Descriptor.copy d));
  Alcotest.(check bool) "create undone" true (Catalog.find c "emp" = None);
  Catalog.undo_op c (Catalog.Create_rel (Descriptor.copy d));
  (* undo Drop_rel restores (and tolerates being re-run) *)
  Catalog.undo_op c (Catalog.Drop_rel (Descriptor.copy d));
  Alcotest.(check bool) "drop undone" true (Catalog.find c "emp" <> None);
  Catalog.undo_op c (Catalog.Drop_rel (Descriptor.copy d));
  Alcotest.(check int) "no duplicate" 1 (List.length (Catalog.relations c));
  (* undo Set_attachment restores the old slot *)
  Catalog.set_attachment_slot c ~rel_id ~slot:4 (Some "new");
  Catalog.undo_op c
    (Catalog.Set_attachment
       { rel_id; slot = 4; old_desc = Some "old"; new_desc = Some "new" });
  (match Catalog.find_by_id c rel_id with
  | Some d' ->
    Alcotest.(check (option string)) "slot restored" (Some "old")
      (Descriptor.attachment_desc d' 4)
  | None -> Alcotest.fail "relation vanished");
  (* undo Set_smethod restores the storage method's descriptor *)
  Catalog.set_smethod_desc c ~rel_id "sealed";
  Catalog.undo_op c
    (Catalog.Set_smethod { rel_id; old_desc = ""; new_desc = "sealed" });
  (match Catalog.find_by_id c rel_id with
  | Some d' ->
    Alcotest.(check string) "smethod desc restored" "" d'.Descriptor.smethod_desc
  | None -> Alcotest.fail "relation vanished");
  (* undo against a dropped relation is a no-op *)
  ignore (Catalog.remove_relation c rel_id);
  Catalog.undo_op c
    (Catalog.Set_attachment
       { rel_id; slot = 4; old_desc = None; new_desc = None })

(* A catalog written before heap page lists and record counts left the
   descriptors (magic [DMXCATL2]) is refused by name, and left as it is. *)
let test_dmxcatl2_refused () =
  let path = Filename.temp_file "dmx_cat_l2" ".dmx" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let e = Codec.Enc.create () in
  Codec.Enc.string e "DMXCATL2";
  Codec.Enc.varint e 1;
  Codec.Enc.list e Descriptor.enc [];
  Codec.Enc.varint e 7;
  let bytes = Codec.Enc.to_string e in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
  (match Catalog.load ~path with
  | _ -> Alcotest.fail "a DMXCATL2 catalog loaded"
  | exception Failure msg ->
    Alcotest.(check bool) ("names the old format: " ^ msg) true
      (Astring_contains.contains msg "DMXCATL2"));
  Alcotest.(check string) "the file is unchanged" bytes
    (In_channel.with_open_bin path In_channel.input_all)

(* Property: descriptor encode/decode is the identity on slot contents. *)
let prop_descriptor_roundtrip =
  QCheck.Test.make ~name:"descriptor codec roundtrip" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 0 10)
        (pair (int_range 0 (Descriptor.max_attachment_types - 1)) string))
    (fun slots ->
      let d =
        Descriptor.make ~rel_id:1 ~rel_name:"r" ~schema:emp_schema
          ~smethod_id:0 ~smethod_desc:"sd"
      in
      List.iter
        (fun (slot, data) -> Descriptor.set_attachment_desc d slot (Some data))
        slots;
      let e = Codec.Enc.create () in
      Descriptor.enc e d;
      let d' = Descriptor.dec (Codec.Dec.of_string (Codec.Enc.to_string e)) in
      List.for_all
        (fun n ->
          Descriptor.attachment_desc d n = Descriptor.attachment_desc d' n)
        (List.init Descriptor.max_attachment_types Fun.id))

let suite =
  [
    Alcotest.test_case "attribute lists" `Quick test_attrlist;
    Alcotest.test_case "composite descriptor layout" `Quick
      test_descriptor_layout;
    Alcotest.test_case "descriptor codec" `Quick test_descriptor_codec;
    Alcotest.test_case "catalog CRUD" `Quick test_catalog_crud;
    Alcotest.test_case "catalog persistence" `Quick test_catalog_persistence;
    Alcotest.test_case "catalog op codec + testable undo" `Quick
      test_catalog_op_codec_and_undo;
    Alcotest.test_case "a DMXCATL2 catalog is refused" `Quick
      test_dmxcatl2_refused;
    QCheck_alcotest.to_alcotest prop_descriptor_roundtrip;
  ]
