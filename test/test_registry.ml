(* Registry edge cases: duplicate names, registration after freeze, vector
   overflow, and dispatch through unregistered procedure-vector slots.

   The registry is global, freeze-once state shared by every suite, so each
   scenario runs inside [with_scratch_registry]: the current registrations
   are captured (as first-class module handles, with their batch entries),
   the registry is reset for the scenario, and afterwards everything is
   re-registered in the original id order with the same batch entries and
   the frozen flag restored — extension modules cache their assigned ids,
   so restoring the order restores consistency, and the suites that run
   later dispatch through the native batch routines, not the default
   loops. Redo entries and page bounds are kept by name and need no
   restoring. *)

open Dmx_core
open Dmx_value
module Descriptor = Dmx_catalog.Descriptor

let with_scratch_registry f =
  let saved_sm =
    List.map
      (fun (id, _) ->
        ( Registry.storage_method id,
          Registry.Vec.sm_insert_batch.(id),
          Registry.Vec.sm_scan_batch.(id) ))
      (Registry.storage_methods ())
  in
  let saved_at =
    List.map
      (fun (id, _) ->
        (Registry.attachment id, Registry.Vec.at_on_insert_batch.(id)))
      (Registry.attachments ())
  in
  let was_frozen = Registry.is_frozen () in
  Registry.reset_for_testing ();
  Fun.protect
    ~finally:(fun () ->
      Registry.reset_for_testing ();
      List.iter
        (fun (m, insert_batch, scan_batch) ->
          let id = Registry.register_storage_method m in
          Registry.set_sm_insert_batch id insert_batch;
          Registry.set_sm_scan_batch id scan_batch)
        saved_sm;
      List.iter
        (fun (m, insert_batch) ->
          Registry.set_at_insert_batch (Registry.register_attachment m)
            insert_batch)
        saved_at;
      if was_frozen then Registry.freeze ())
    f

let dummy_sm ?(records = [||]) name : (module Intf.STORAGE_METHOD) =
  (module struct
    let name = name
    let attr_specs = []
    let create _ ~rel_id:_ _ _ = Ok ""
    let destroy _ ~rel_id:_ ~smethod_desc:_ = ()
    let insert _ _ _ = Error (Error.Internal "dummy")
    let update _ _ _ _ = Error (Error.Internal "dummy")
    let delete _ _ _ = Error (Error.Internal "dummy")
    let fetch _ _ _ ?fields:_ () = None

    let scan _ _ ?lo:_ ?hi:_ ?filter () =
      let pos = ref 0 in
      Scan_help.filtered ?filter
        ~next:(fun () ->
          if !pos >= Array.length records then None
          else begin
            incr pos;
            Some (Record_key.rid ~page:0 ~slot:!pos, records.(!pos - 1))
          end)
        ~close:ignore
        ~capture:(fun () ->
          let saved = !pos in
          fun () -> pos := saved)
        ()

    let key_fields _ = None
    let record_count _ _ = 0

    let estimate_scan _ _ ~eligible:_ =
      {
        Cost.cost = Cost.make ~io:0. ~cpu:0.;
        est_rows = 0.;
        matched = [];
        residual = [];
        ordered_by = None;
      }

    let undo _ ~rel_id:_ ~data:_ = ()
  end)

let test_duplicate_name () =
  with_scratch_registry (fun () ->
      ignore (Registry.register_storage_method (dummy_sm "dup"));
      Alcotest.check_raises "duplicate storage-method name"
        (Invalid_argument "Registry: storage method \"dup\" already registered")
        (fun () -> ignore (Registry.register_storage_method (dummy_sm "dup"))))

let test_register_after_freeze () =
  with_scratch_registry (fun () ->
      Registry.freeze ();
      Alcotest.check_raises "registration after freeze"
        (Invalid_argument
           "Registry: cannot register storage method late after the database \
            has opened — extensions are bound at the factory")
        (fun () -> ignore (Registry.register_storage_method (dummy_sm "late"))))

let test_vector_full () =
  with_scratch_registry (fun () ->
      for i = 0 to Registry.max_storage_methods - 1 do
        ignore (Registry.register_storage_method (dummy_sm (Fmt.str "sm%d" i)))
      done;
      Alcotest.check_raises "storage-method vector overflow"
        (Invalid_argument "Registry: storage-method vector full") (fun () ->
          ignore (Registry.register_storage_method (dummy_sm "one-too-many"))))

(* Dispatching through an id that was never registered must name the vector
   and the slot: nothing needs the registry reset here, any id beyond the
   registered count is an unregistered slot of the live registry. *)
let test_unregistered_dispatch () =
  let sv = Test_util.fresh_services () in
  let ctx = Services.begin_txn sv in
  let schema = Schema.make_exn [ Schema.column "id" Value.Tint ] in
  let bad_id = Registry.max_storage_methods - 1 in
  let desc =
    Descriptor.make ~rel_id:9999 ~rel_name:"ghost" ~schema ~smethod_id:bad_id
      ~smethod_desc:""
  in
  Alcotest.check_raises "unregistered sm_insert dispatch"
    (Failure
       (Fmt.str
          "Registry: dispatch through unregistered slot %d of vector \
           sm_insert — the extension was linked but never registered in the \
           default factory (Db.register_defaults)"
          bad_id))
    (fun () ->
      ignore (Registry.Vec.sm_insert.(bad_id) ctx desc [| Value.int 1 |]));
  Alcotest.check_raises "unregistered at_on_delete dispatch"
    (Failure
       "Registry: dispatch through unregistered slot 31 of vector \
        at_on_delete — the extension was linked but never registered in the \
        default factory (Db.register_defaults)")
    (fun () ->
      ignore
        (Registry.Vec.at_on_delete.(Descriptor.max_attachment_types - 1) ctx
           desc ~slot:"" (Record_key.rid ~page:0 ~slot:0) [| Value.int 1 |]));
  (* the optional batch-scan slot: its default chunks the record scan, so an
     unregistered id fails on the underlying sm_scan_batch lookup *)
  Alcotest.check_raises "unregistered sm_scan_batch dispatch"
    (Failure
       (Fmt.str
          "Registry: dispatch through unregistered slot %d of vector \
           sm_scan_batch — the extension was linked but never registered in \
           the default factory (Db.register_defaults)"
          bad_id))
    (fun () ->
      ignore
        (Registry.Vec.sm_scan_batch.(bad_id) ctx desc ~lo:Intf.Unbounded
           ~hi:Intf.Unbounded ~filter:None));
  Services.abort sv ctx;
  Services.close sv

(* The restore protocol itself: ids and dispatch survive a scratch cycle. *)
let test_scratch_restores () =
  let before = Registry.storage_methods () in
  with_scratch_registry (fun () ->
      ignore (Registry.register_storage_method (dummy_sm "scratch-only")));
  Alcotest.(check (list (pair int string)))
    "registrations restored in id order" before
    (Registry.storage_methods ())

(* A scratch cycle puts back every batch entry, native or default. *)
let test_scratch_keeps_batch_entries () =
  ignore (Lazy.force Test_util.registered);
  let entries () =
    List.map
      (fun (id, _) ->
        (Registry.Vec.sm_insert_batch.(id), Registry.Vec.sm_scan_batch.(id)))
      (Registry.storage_methods ())
  in
  let at_entries () =
    List.map
      (fun (id, _) -> Registry.Vec.at_on_insert_batch.(id))
      (Registry.attachments ())
  in
  let before = entries () and at_before = at_entries () in
  with_scratch_registry ignore;
  Alcotest.(check bool) "storage-method batch entries kept" true
    (List.for_all2
       (fun (i, s) (i', s') -> i == i' && s == s')
       before (entries ()));
  Alcotest.(check bool) "attachment batch entries kept" true
    (List.for_all2 ( == ) at_before (at_entries ()))

(* A transaction on a fresh in-memory database, and a one-column descriptor
   under storage method [smethod_id]; the registrations must be in place
   first, since opening freezes the registry. *)
let in_txn ~smethod_id f =
  let sv = Services.setup () in
  let ctx = Services.begin_txn sv in
  let schema = Schema.make_exn [ Schema.column "n" Value.Tint ] in
  let desc =
    Descriptor.make ~rel_id:1 ~rel_name:"fresh" ~schema ~smethod_id
      ~smethod_desc:""
  in
  Fun.protect
    ~finally:(fun () ->
      Services.abort sv ctx;
      Services.close sv)
    (fun () -> f ctx desc)

(* Each entry of a [register tag] call raises [Internal tag], so a check
   tells which call installed it. *)
let raises_tag what tag f =
  Alcotest.check_raises what (Error.Error (Error.Internal tag)) (fun () ->
      ignore (f ()))

(* The shared registration core, applied to a fresh name. [Registry.Smethod]
   refuses [id] before [register]; a second [register] returns the first id
   and installs nothing, so every entry still answers as the first call
   installed it. *)
let test_smethod_functor () =
  with_scratch_registry (fun () ->
      let module M = Registry.Smethod (struct
        let name = "fresh_sm"
      end) in
      raises_tag "id before register" "fresh_sm: storage method not registered"
        M.id;
      let fail tag = Error.raise_err (Error.Internal tag) in
      let register tag =
        M.register
          ~insert_batch:(fun _ _ _ -> fail tag)
          ~scan_batch:(fun _ _ ~lo:_ ~hi:_ ~filter:_ -> fail tag)
          ~page_bound:(fun _ -> String.length tag)
          ~redo:(fun _ ~rel_id:_ ~data:_ -> fail tag)
          (dummy_sm "fresh_sm")
      in
      let id = register "first" in
      Alcotest.(check int) "id () is the registered id" id (M.id ());
      Alcotest.(check int) "a second register returns the same id" id
        (register "second");
      Alcotest.(check int) "page bound" 5 (Registry.sm_page_bound id "");
      in_txn ~smethod_id:id (fun ctx desc ->
          raises_tag "batch insert" "first" (fun () ->
              Registry.Vec.sm_insert_batch.(id) ctx desc [||]);
          raises_tag "batch scan" "first" (fun () ->
              Registry.Vec.sm_scan_batch.(id) ctx desc ~lo:Intf.Unbounded
                ~hi:Intf.Unbounded ~filter:None);
          raises_tag "redo" "first" (fun () ->
              Registry.sm_redo id ctx ~rel_id:1 ~data:"")))

(* A method registered without a batch scan is scanned through the
   registry's default entry, which chunks its record scan into runs. *)
let test_smethod_default_scan_batch () =
  with_scratch_registry (fun () ->
      let module M = Registry.Smethod (struct
        let name = "chunked"
      end) in
      let records = Array.init 5 (fun i -> [| Value.int i |]) in
      let id =
        M.register ~redo:(fun _ ~rel_id:_ ~data:_ -> ())
          (dummy_sm ~records "chunked")
      in
      in_txn ~smethod_id:id (fun ctx desc ->
          Scan_help.set_run_length_for_testing (Some 2);
          Fun.protect
            ~finally:(fun () -> Scan_help.set_run_length_for_testing None)
            (fun () ->
              let scan =
                Registry.Vec.sm_scan_batch.(id) ctx desc ~lo:Intf.Unbounded
                  ~hi:Intf.Unbounded ~filter:None
              in
              let rec runs acc =
                match scan.Intf.rn_next () with
                | None -> List.rev acc
                | Some run ->
                  runs (Array.to_list (Array.map (fun (_, r) -> r.(0)) run)
                        :: acc)
              in
              Alcotest.(check (list (list string))) "records in runs of two"
                [ [ "0"; "1" ]; [ "2"; "3" ]; [ "4" ] ]
                (List.map (List.map Value.to_string) (runs [])))))

let dummy_at name : (module Intf.ATTACHMENT) =
  (module struct
    let name = name
    let attr_specs = []
    let create_instance _ _ ~instance_name:_ _ = Ok ""
    let drop_instance _ _ ~instance_name:_ = Ok None
    let on_insert _ _ ~slot:_ _ _ = Ok ()

    let on_update _ _ ~slot:_ ~old_key:_ ~new_key:_ ~old_record:_
        ~new_record:_ =
      Ok ()

    let on_delete _ _ ~slot:_ _ _ = Ok ()
    let lookup _ _ ~slot:_ ~instance:_ ~key:_ = []
    let scan _ _ ~slot:_ ~instance:_ ?lo:_ ?hi:_ () = None
    let estimate _ _ ~slot:_ ~eligible:_ = []
    let undo _ ~rel_id:_ ~data:_ = ()
  end)

(* The same rule through [Attach_util.Slot]. *)
let test_slot_functor () =
  with_scratch_registry (fun () ->
      let module S = Dmx_attach.Attach_util.Slot (struct
        let name = "fresh_at"

        type t = unit

        let enc _ () = ()
        let dec _ = ()
      end) in
      raises_tag "id before register" "fresh_at: attachment not registered"
        S.id;
      let fail tag = Error.raise_err (Error.Internal tag) in
      let register tag =
        S.register
          ~insert_batch:(fun _ _ ~slot:_ _ -> fail tag)
          ~redo:(fun _ ~rel_id:_ ~data:_ -> fail tag)
          (dummy_at "fresh_at")
      in
      let id = register "first" in
      Alcotest.(check int) "id () is the registered id" id (S.id ());
      Alcotest.(check int) "a second register returns the same id" id
        (register "second");
      in_txn ~smethod_id:0 (fun ctx desc ->
          raises_tag "batch insert" "first" (fun () ->
              Registry.Vec.at_on_insert_batch.(id) ctx desc ~slot:"" [||]);
          raises_tag "redo" "first" (fun () ->
              Registry.at_redo id ctx ~rel_id:1 ~data:"")))

module Attrlist = Dmx_catalog.Attrlist
module Db = Dmx_db.Db

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let ddl_refusal = function
  | Error (Error.Ddl_error msg) -> Some msg
  | Ok _ | Error _ -> None

(* Attribute lists [Attrlist.validate] refuses for [specs], with its
   message: an unknown attribute, the first required attribute missing, and
   the first int or bool attribute ill-typed, each beside well-typed values
   for every other required attribute. *)
let bad_attr_lists specs =
  let value s =
    match s.Attrlist.attr_ty with
    | Attrlist.A_int -> "1"
    | A_bool -> "true"
    | A_string -> "x"
  in
  let required =
    List.filter_map
      (fun s ->
        if s.Attrlist.required then Some (s.attr_name, value s) else None)
      specs
  in
  let without name = List.filter (fun (k, _) -> k <> name) required in
  let unknown =
    ("unknown attribute", "unknown attribute bogus", ("bogus", "1") :: required)
  in
  let missing =
    match required with
    | [] -> []
    | (first, _) :: _ ->
      [ ("missing required", "missing required attribute", without first) ]
  in
  let ill_typed =
    match List.find_opt (fun s -> s.Attrlist.attr_ty <> A_string) specs with
    | None -> []
    | Some s ->
      let attrs = (s.attr_name, "x") :: without s.attr_name in
      [ ("ill-typed value", "is not a", attrs) ]
  in
  List.map
    (fun (what, fragment, attrs) ->
      match Attrlist.validate specs attrs with
      | Error msg when contains msg fragment -> (what, attrs, msg)
      | Error msg -> Alcotest.failf "%s: unexpected message %S" what msg
      | Ok () -> Alcotest.failf "%s: %a validates" what Attrlist.pp attrs)
    ((unknown :: missing) @ ill_typed)

(* The common DDL validates each attribute list against the extension's
   [attr_specs] before the extension runs, for every storage method and
   attachment type of the default factory, with [Attrlist.validate]'s
   message. *)
let test_ddl_validates_attrs () =
  let db = Db.open_database () in
  let schema = Schema.make_exn [ Schema.column "id" Value.Tint ] in
  let check kind name specs ddl =
    List.iter
      (fun (what, attrs, msg) ->
        Alcotest.(check (option string))
          (Fmt.str "%s %s: %s" kind name what)
          (Some msg) (ddl_refusal (ddl attrs)))
      (bad_attr_lists specs)
  in
  let r =
    Db.with_txn db (fun ctx ->
        let ( let* ) = Result.bind in
        let* _ = Db.create_relation db ctx ~name:"base" ~schema () in
        List.iter
          (fun (id, name) ->
            let (module M : Intf.STORAGE_METHOD) = Registry.storage_method id in
            check "storage method" name M.attr_specs (fun attrs ->
                Db.create_relation db ctx ~name:("r_" ^ name) ~schema
                  ~storage_method:name ~attrs ()))
          (Registry.storage_methods ());
        List.iter
          (fun (id, name) ->
            let (module A : Intf.ATTACHMENT) = Registry.attachment id in
            check "attachment type" name A.attr_specs (fun attrs ->
                Db.create_attachment db ctx ~relation:"base"
                  ~attachment_type:name ~name:"a" ~attrs ()))
          (Registry.attachments ());
        Ok ())
  in
  Alcotest.(check bool) "transaction" true (Result.is_ok r);
  Db.close db

(* A storage method that interprets its list without validating it still
   gets only lists that match its [attr_specs]. *)
let test_ddl_validates_for_extension () =
  with_scratch_registry (fun () ->
      let (module D) = dummy_sm "trusting" in
      let id =
        Registry.register_storage_method
          (module struct
            include D

            let attr_specs = [ Attrlist.spec "capacity" Attrlist.A_int ]
          end)
      in
      in_txn ~smethod_id:id (fun ctx _ ->
          let schema = Schema.make_exn [ Schema.column "n" Value.Tint ] in
          let create name attrs =
            Dmx_ddl.Ddl.create_relation ctx ~name ~schema
              ~storage_method:"trusting" ~attrs ()
          in
          Alcotest.(check (option string)) "unknown attribute refused"
            (Some "unknown attribute bogus")
            (ddl_refusal (create "r1" [ ("capacity", "5"); ("bogus", "1") ]));
          Alcotest.(check bool) "a valid list is accepted" true
            (Result.is_ok (create "r2" [ ("capacity", "5") ]))))

let suite =
  [
    Alcotest.test_case "duplicate name rejected" `Quick test_duplicate_name;
    Alcotest.test_case "registration after freeze rejected" `Quick
      test_register_after_freeze;
    Alcotest.test_case "vector-full overflow rejected" `Quick test_vector_full;
    Alcotest.test_case "unregistered dispatch names vector and slot" `Quick
      test_unregistered_dispatch;
    Alcotest.test_case "scratch registry restores state" `Quick
      test_scratch_restores;
    Alcotest.test_case "scratch registry keeps batch entries" `Quick
      test_scratch_keeps_batch_entries;
    Alcotest.test_case "storage-method functor registers once" `Quick
      test_smethod_functor;
    Alcotest.test_case "a method without a batch scan is chunked" `Quick
      test_smethod_default_scan_batch;
    Alcotest.test_case "attachment slot registers once" `Quick
      test_slot_functor;
    Alcotest.test_case "DDL validates every default extension's attributes"
      `Quick test_ddl_validates_attrs;
    Alcotest.test_case "DDL validates for a method that does not" `Quick
      test_ddl_validates_for_extension;
  ]
