(* Shared helpers for the test suites. *)
open Dmx_value

let value_testable = Alcotest.testable Value.pp Value.equal
let record_testable = Alcotest.testable Record.pp Record.equal
let key_testable = Alcotest.testable Record_key.pp Record_key.equal

let check_ok what = function
  | Ok v -> v
  | Error e ->
    Alcotest.failf "%s: unexpected error: %s" what (Dmx_core.Error.to_string e)

let check_err what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error e -> e

let vi n = Value.int n
let vs s = Value.String s
let vf f = Value.Float f
let vb b = Value.Bool b

(* Temp-dir plumbing shared with the torture harness: recursive removal (the
   flat per-suite copies broke as soon as a store grew a subdirectory) and
   guaranteed cleanup. *)
let rm_rf = Dmx_torture.Chaos_util.rm_rf
let fresh_dir = Dmx_torture.Chaos_util.fresh_dir
let with_temp_dir = Dmx_torture.Chaos_util.with_temp_dir

(* Extension registration is global and freeze-once; all suites share one
   registration set, established on first use. The audit trigger function
   used by the trigger tests is registered here too ("at the factory"). *)
let audit_log : string list ref = ref []

let registered =
  lazy
    (let _heap = Dmx_smethod.Heap.register () in
     let _btree_org = Dmx_smethod.Btree_org.register () in
     let _memory = Dmx_smethod.Memory.register () in
     let _temp = Dmx_smethod.Temp.register () in
     let _readonly = Dmx_smethod.Readonly.register () in
     let _foreign = Dmx_smethod.Foreign.register () in
     let _sysview = Dmx_smethod.Sysview.register () in
     let _bi = Dmx_attach.Btree_index.register () in
     let _hi = Dmx_attach.Hash_index.register () in
     let _ri = Dmx_attach.Rtree_index.register () in
     let _ji = Dmx_attach.Join_index.register () in
     let _ck = Dmx_attach.Check.register () in
     let _rf = Dmx_attach.Refint.register () in
     let _tg = Dmx_attach.Trigger.register () in
     let _st = Dmx_attach.Stats.register () in
     let _ag = Dmx_attach.Agg.register () in
     Dmx_attach.Trigger.register_function "audit" (fun _ctx fire ->
         let what =
           match fire.Dmx_attach.Trigger.fire_event with
           | Dmx_attach.Trigger.On_insert -> "insert"
           | Dmx_attach.Trigger.On_update -> "update"
           | Dmx_attach.Trigger.On_delete -> "delete"
         in
         audit_log :=
           Fmt.str "%s %s" what fire.fire_relation.Dmx_catalog.Descriptor.rel_name
           :: !audit_log;
         Ok ());
     Dmx_attach.Trigger.register_function "no_friday" (fun _ctx fire ->
         match fire.Dmx_attach.Trigger.fire_new with
         | Some r when r.(1) = Value.String "friday" ->
           Error (Dmx_core.Error.veto ~attachment:"trigger no_friday" "not on friday")
         | _ -> Ok ()))

let fresh_services ?dir ?(pool_capacity = 128) () =
  ignore (Lazy.force registered);
  Dmx_smethod.Memory.reset_all ();
  Dmx_smethod.Temp.reset_all ();
  Dmx_core.Services.setup ?dir ~pool_capacity ()

let emp_schema =
  Schema.make_exn
    [
      Schema.column ~nullable:false "id" Value.Tint;
      Schema.column "name" Value.Tstring;
      Schema.column "dept" Value.Tstring;
      Schema.column "salary" Value.Tint;
    ]

let emp n name dept salary = [| vi n; vs name; vs dept; vi salary |]

(* Scan a relation to a list of records (sorted by first field for stable
   comparisons). *)
let all_records ctx desc =
  let scan = check_ok "scan" (Dmx_core.Relation.scan ctx desc ()) in
  Dmx_core.Scan_help.record_scan_to_list scan
  |> List.map snd
  |> List.sort (fun a b -> Value.compare a.(0) b.(0))

let count_records ctx desc = List.length (all_records ctx desc)
