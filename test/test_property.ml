(* Model-based property tests over the whole architecture: random operation
   sequences through the generic dispatch, checked against a pure model, with
   savepoints, aborts and crash injection. *)
open Dmx_value
open Dmx_core
open Test_util
module Ddl = Dmx_ddl.Ddl
module Relation = Dmx_core.Relation
module Imap = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* Generator: operation scripts over employee-shaped records keyed by   *)
(* a client-chosen id (we maintain id -> record key bindings).          *)
(* ------------------------------------------------------------------ *)

type op =
  | Insert of int * int  (* id, salary *)
  | Update of int * int
  | Delete of int
  | Savepoint
  | Rollback

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun i s -> Insert (i, s)) (int_range 0 40) (int_range 1 500));
        (3, map2 (fun i s -> Update (i, s)) (int_range 0 40) (int_range 1 500));
        (3, map (fun i -> Delete i) (int_range 0 40));
        (1, return Savepoint);
        (1, return Rollback);
      ])

let script_gen = QCheck.Gen.(list_size (int_range 1 60) op_gen)

let arb_script =
  QCheck.make script_gen
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Insert (i, s) -> Fmt.str "ins(%d,%d)" i s
             | Update (i, s) -> Fmt.str "upd(%d,%d)" i s
             | Delete i -> Fmt.str "del(%d)" i
             | Savepoint -> "sp"
             | Rollback -> "rb")
           ops))

let record_of id salary = emp id (Fmt.str "u%d" id) (Fmt.str "d%d" (id mod 5)) salary

(* Run a script through the real system and a pure model simultaneously.
   The model maps id -> salary; bindings map id -> record key. *)
let run_script ~storage_method ~attrs ~with_index ops =
  (* uniqueness of id is enforced by the pk index or by key-organised
     storage; without either, duplicate inserts are skipped by the driver *)
  let unique_enforced = with_index || storage_method = "btree" in
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema ~storage_method
         ~attrs ())
  in
  if with_index then begin
    check_ok "pk"
      (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
         ~name:"pk"
         ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
    check_ok "stats"
      (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"stats"
         ~name:"st" ~attrs:[ ("fields", "salary") ] ())
  end;
  let model = ref Imap.empty in
  let keys = ref Imap.empty in
  let saved = ref [] in
  let sp_counter = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Insert (id, salary) ->
        if Imap.mem id !model && not unique_enforced then ()
        else begin
          match Relation.insert ctx desc (record_of id salary) with
          | Ok key ->
            if Imap.mem id !model then
              Alcotest.failf "duplicate id %d admitted" id;
            model := Imap.add id salary !model;
            keys := Imap.add id key !keys
          | Error (Error.Veto _ | Error.Duplicate_key _)
            when Imap.mem id !model ->
            ()  (* correct: duplicate refused *)
          | Error e -> Alcotest.failf "insert: %s" (Error.to_string e)
        end
      | Update (id, salary) -> begin
        match Imap.find_opt id !keys with
        | None -> ()
        | Some key -> begin
          match Relation.update ctx desc key (record_of id salary) with
          | Ok key' ->
            model := Imap.add id salary !model;
            keys := Imap.add id key' !keys
          | Error e -> Alcotest.failf "update: %s" (Error.to_string e)
        end
      end
      | Delete id -> begin
        match Imap.find_opt id !keys with
        | None -> ()
        | Some key -> begin
          match Relation.delete ctx desc key with
          | Ok _ ->
            model := Imap.remove id !model;
            keys := Imap.remove id !keys
          | Error e -> Alcotest.failf "delete: %s" (Error.to_string e)
        end
      end
      | Savepoint ->
        incr sp_counter;
        let name = Fmt.str "sp%d" !sp_counter in
        Services.savepoint ctx name;
        saved := (name, (!model, !keys)) :: !saved
      | Rollback -> begin
        match !saved with
        | [] -> ()
        | (name, (m, k)) :: rest ->
          Services.rollback_to ctx name;
          model := m;
          keys := k;
          saved := rest
      end)
    ops;
  (* compare the relation contents to the model *)
  let actual =
    all_records ctx desc
    |> List.map (fun r ->
           ( Int64.to_int (Option.get (Value.to_int r.(0))),
             Int64.to_int (Option.get (Value.to_int r.(3))) ))
    |> List.sort compare
  in
  let expected = Imap.bindings !model in
  if actual <> expected then
    QCheck.Test.fail_reportf "contents diverge: actual %a vs model %a"
      Fmt.(list ~sep:(any ",") (pair ~sep:(any ":") int int))
      actual
      Fmt.(list ~sep:(any ",") (pair ~sep:(any ":") int int))
      expected;
  (* the index agrees with the relation on every live id *)
  if with_index then begin
    let at_id = Option.get (Registry.attachment_id "btree_index") in
    Imap.iter
      (fun id _ ->
        let hits =
          check_ok "lookup"
            (Relation.lookup ctx desc ~attachment_id:at_id ~instance:1
               ~key:[| vi id |])
        in
        if List.length hits <> 1 then
          QCheck.Test.fail_reportf "index has %d entries for live id %d"
            (List.length hits) id)
      !model;
    (* stats agree on count and salary sum *)
    match Dmx_attach.Stats.get ctx desc ~name:"st" with
    | None -> QCheck.Test.fail_report "stats instance vanished"
    | Some s ->
      let expect_count = Imap.cardinal !model in
      let expect_sum =
        Imap.fold (fun _ v acc -> Int64.add acc (Int64.of_int v)) !model 0L
      in
      if s.Dmx_attach.Stats.live_count <> expect_count then
        QCheck.Test.fail_reportf "stats count %d vs %d" s.live_count
          expect_count;
      let fs = List.hd s.per_field in
      if fs.Dmx_attach.Stats.sum <> expect_sum then
        QCheck.Test.fail_reportf "stats sum %Ld vs %Ld" fs.sum expect_sum
  end;
  Services.commit services ctx;
  true

let prop_heap_dispatch =
  QCheck.Test.make ~name:"heap dispatch matches model (with index+stats)"
    ~count:40 arb_script
    (run_script ~storage_method:"heap" ~attrs:[] ~with_index:true)

let prop_btree_org_dispatch =
  QCheck.Test.make ~name:"btree-organised dispatch matches model" ~count:30
    arb_script
    (fun ops ->
      (* updates to the key field relocate records; ids map to keys so the
         script exercises that path implicitly via Update *)
      run_script ~storage_method:"btree" ~attrs:[ ("key", "id") ]
        ~with_index:false ops)

let prop_memory_dispatch =
  QCheck.Test.make ~name:"memory dispatch matches model" ~count:30 arb_script
    (run_script ~storage_method:"memory" ~attrs:[] ~with_index:false)

(* abort leaves no trace, whatever the script did *)
let prop_abort_restores =
  QCheck.Test.make ~name:"abort restores pre-transaction state" ~count:30
    arb_script
    (fun ops ->
      let services = fresh_services () in
      (* committed baseline *)
      let ctx = Services.begin_txn services in
      let desc =
        check_ok "create"
          (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
             ~storage_method:"heap" ())
      in
      check_ok "pk"
        (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
           ~name:"pk"
           ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
      let baseline_keys =
        List.map
          (fun i -> check_ok "seed" (Relation.insert ctx desc (record_of (100 + i) 1)))
          [ 1; 2; 3 ]
      in
      ignore baseline_keys;
      Services.commit services ctx;
      let snapshot ctx desc = all_records ctx desc in
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "t") in
      let before = snapshot ctx desc in
      (* run the script best-effort inside the doomed transaction *)
      let keys = ref Imap.empty in
      List.iter
        (fun op ->
          match op with
          | Insert (id, s) -> begin
            match Relation.insert ctx desc (record_of id s) with
            | Ok k -> keys := Imap.add id k !keys
            | Error _ -> ()
          end
          | Update (id, s) -> begin
            match Imap.find_opt id !keys with
            | Some k -> begin
              match Relation.update ctx desc k (record_of id s) with
              | Ok k' -> keys := Imap.add id k' !keys
              | Error _ -> ()
            end
            | None -> ()
          end
          | Delete id -> begin
            match Imap.find_opt id !keys with
            | Some k ->
              ignore (Relation.delete ctx desc k);
              keys := Imap.remove id !keys
            | None -> ()
          end
          | Savepoint | Rollback -> ())
        ops;
      Services.abort services ctx;
      let ctx = Services.begin_txn services in
      let desc = check_ok "find" (Ddl.find_relation ctx "t") in
      let after = snapshot ctx desc in
      Services.commit services ctx;
      List.map Record.to_string before = List.map Record.to_string after)

(* crash injection: commit a random prefix, leave the suffix in flight,
   crash with or without flushing, recover, expect exactly the committed
   prefix *)
let prop_crash_recovery =
  QCheck.Test.make ~name:"crash recovery preserves exactly committed work"
    ~count:15
    QCheck.(
      pair arb_script (pair arb_script bool))
    (fun (committed_ops, (inflight_ops, flush_before_crash)) ->
      with_temp_dir ~prefix:"dmx_prop" (fun dir ->
          let services = fresh_services ~dir () in
          let ctx = Services.begin_txn services in
          let desc =
            check_ok "create"
              (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
                 ~storage_method:"heap" ())
          in
          check_ok "pk"
            (Ddl.create_attachment ctx ~relation:"t"
               ~attachment_type:"btree_index" ~name:"pk"
               ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
          let keys = ref Imap.empty in
          let model = ref Imap.empty in
          let apply ctx desc op =
            match op with
            | Insert (id, s) -> begin
              match Relation.insert ctx desc (record_of id s) with
              | Ok k ->
                keys := Imap.add id k !keys;
                model := Imap.add id s !model
              | Error _ -> ()
            end
            | Update (id, s) -> begin
              match Imap.find_opt id !keys with
              | Some k -> begin
                match Relation.update ctx desc k (record_of id s) with
                | Ok k' ->
                  keys := Imap.add id k' !keys;
                  model := Imap.add id s !model
                | Error _ -> ()
              end
              | None -> ()
            end
            | Delete id -> begin
              match Imap.find_opt id !keys with
              | Some k ->
                ignore (Relation.delete ctx desc k);
                keys := Imap.remove id !keys;
                model := Imap.remove id !model
              | None -> ()
            end
            | Savepoint | Rollback -> ()
          in
          List.iter (apply ctx desc) committed_ops;
          Services.commit services ctx;
          let committed_model = !model in
          (* in-flight suffix *)
          let ctx = Services.begin_txn services in
          let desc = check_ok "find" (Ddl.find_relation ctx "t") in
          List.iter (apply ctx desc) inflight_ops;
          if flush_before_crash then begin
            Dmx_wal.Wal.flush services.Services.wal;
            ignore (Dmx_page.Buffer_pool.flush_all services.Services.bp)
          end;
          Services.simulate_crash services;
          (* restart *)
          let services = fresh_services ~dir () in
          let ctx = Services.begin_txn services in
          let desc = check_ok "find" (Ddl.find_relation ctx "t") in
          let actual =
            all_records ctx desc
            |> List.map (fun r ->
                   ( Int64.to_int (Option.get (Value.to_int r.(0))),
                     Int64.to_int (Option.get (Value.to_int r.(3))) ))
            |> List.sort compare
          in
          Services.commit services ctx;
          Services.close services;
          actual = Imap.bindings committed_model))

(* ------------------------------------------------------------------ *)
(* insert_many equivalence: the batched path must be observationally     *)
(* indistinguishable from a savepointed insert loop.                     *)
(* ------------------------------------------------------------------ *)

(* Batches mix fresh ids, duplicate ids (the unique pk index vetoes them,
   both across the batch and against committed rows) and negative salaries
   (the check attachment vetoes those), so both the all-placed and the
   mid-batch-failure/whole-batch-rollback paths run. Record keys are NOT
   compared — placement legitimately differs — only content-level state:
   relation contents, per-id btree lookups, per-dept hash lookups, stats. *)
let arb_batch =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 0 30)
        (pair (int_range 0 15) (int_range (-3) 500)))
    ~print:(fun pairs ->
      String.concat "; "
        (List.map (fun (i, s) -> Fmt.str "(%d,%d)" i s) pairs))

let insert_many_state ctx desc batch_ids =
  let contents =
    all_records ctx desc |> List.map Record.to_string |> List.sort compare
  in
  let bt = Option.get (Registry.attachment_id "btree_index") in
  let hash = Option.get (Registry.attachment_id "hash_index") in
  let probe attachment_id instance key =
    check_ok "lookup"
      (Relation.lookup ctx desc ~attachment_id ~instance ~key)
    |> List.length
  in
  let id_hits =
    List.map (fun id -> probe bt 1 [| vi id |]) (List.sort_uniq compare batch_ids)
  in
  let dept_hits = List.init 5 (fun d -> probe hash 1 [| vs (Fmt.str "d%d" d) |]) in
  let stats =
    match Dmx_attach.Stats.get ctx desc ~name:"st" with
    | None -> (-1, 0L)
    | Some s ->
      (s.Dmx_attach.Stats.live_count, (List.hd s.per_field).Dmx_attach.Stats.sum)
  in
  (contents, id_hits, dept_hits, stats)

let run_insert_many_side ~storage_method ?attrs ~batched pairs =
  let batch = Array.of_list (List.map (fun (i, s) -> record_of i s) pairs) in
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  let desc =
    check_ok "create"
      (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema ~storage_method
         ?attrs ())
  in
  check_ok "pk"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"btree_index"
       ~name:"pk"
       ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
  check_ok "hd"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"hash_index"
       ~name:"hd" ~attrs:[ ("fields", "dept") ] ());
  check_ok "ck"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"check"
       ~name:"paid" ~attrs:[ ("predicate", "salary > 0") ] ());
  check_ok "st"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"stats"
       ~name:"st" ~attrs:[ ("fields", "salary") ] ());
  (* committed baseline, so a whole-batch rollback restores something
     non-trivial (and batches can collide with committed ids) *)
  List.iter
    (fun i -> ignore (check_ok "seed" (Relation.insert ctx desc (record_of i 10))))
    [ 3; 7 ];
  Services.commit services ctx;
  let ctx = Services.begin_txn services in
  let desc = check_ok "find" (Ddl.find_relation ctx "t") in
  let ok =
    if batched then
      match Relation.insert_many ctx desc batch with
      | Ok keys -> Array.length keys = Array.length batch
      | Error _ -> false
    else begin
      (* the loop gets the same atomicity contract via a savepoint *)
      Services.savepoint ctx "batch";
      let res =
        Array.fold_left
          (fun acc r ->
            match acc with
            | Error _ -> acc
            | Ok () -> Result.map (fun _ -> ()) (Relation.insert ctx desc r))
          (Ok ()) batch
      in
      match res with
      | Ok () -> true
      | Error _ ->
        Services.rollback_to ctx "batch";
        false
    end
  in
  let state = insert_many_state ctx desc (List.map fst pairs) in
  Services.commit services ctx;
  (ok, state)

let prop_insert_many_equiv_of ~storage_method ?attrs () =
  QCheck.Test.make
    ~name:(Fmt.str "insert_many = savepointed loop (%s)" storage_method)
    ~count:30 arb_batch
    (fun pairs ->
      let ok_b, st_b =
        run_insert_many_side ~storage_method ?attrs ~batched:true pairs
      in
      let ok_l, st_l =
        run_insert_many_side ~storage_method ?attrs ~batched:false pairs
      in
      if ok_b <> ok_l then
        QCheck.Test.fail_reportf "outcome diverges: batched %b vs loop %b" ok_b
          ok_l;
      if st_b <> st_l then QCheck.Test.fail_report "post-state diverges";
      true)

(* heap and btree register a specialized sm_insert_batch; memory rides the
   registry's default per-record fallback — all must match the loop. A
   btree keyed on id refuses a repeated id itself. *)
let prop_insert_many_equiv_heap =
  prop_insert_many_equiv_of ~storage_method:"heap" ()

let prop_insert_many_equiv_memory =
  prop_insert_many_equiv_of ~storage_method:"memory" ()

let prop_insert_many_equiv_btree =
  prop_insert_many_equiv_of ~storage_method:"btree" ~attrs:[ ("key", "id") ] ()

(* Whatever access path the planner picks, the answer must equal a naive
   full-scan + common-evaluator filter. Predicates are random combinations of
   sargable and non-sargable conjuncts over an indexed relation. *)
let prop_planner_equals_naive =
  let pred_gen =
    let open QCheck.Gen in
    let atom =
      oneof
        [
          map (fun n -> Fmt.str "id = %d" n) (int_range (-5) 120);
          map2 (fun a b -> Fmt.str "id >= %d AND id < %d" (min a b) (max a b))
            (int_range 0 120) (int_range 0 120);
          map (fun n -> Fmt.str "salary > %d" n) (int_range 0 120);
          map (fun d -> Fmt.str "dept = 'd%d'" d) (int_range 0 8);
          map (fun d -> Fmt.str "dept <> 'd%d'" d) (int_range 0 8);
          return "name LIKE 'u1%'";
          return "salary IS NULL";
        ]
    in
    let clause =
      oneof
        [
          atom;
          map2 (fun a b -> Fmt.str "(%s) AND (%s)" a b) atom atom;
          map2 (fun a b -> Fmt.str "(%s) OR (%s)" a b) atom atom;
        ]
    in
    oneof
      [ clause; map2 (fun a b -> Fmt.str "(%s) AND (%s)" a b) clause atom ]
  in
  QCheck.Test.make ~name:"planner+executor = naive scan+filter" ~count:60
    (QCheck.make pred_gen ~print:Fun.id)
    (fun where ->
      let db =
        (ignore (fresh_services ());
         Dmx_db.Db.open_database ())
      in
      let result =
        Dmx_db.Db.with_txn db (fun ctx ->
            ignore
              (check_ok "create"
                 (Dmx_db.Db.create_relation db ctx ~name:"employee"
                    ~schema:emp_schema ()))
            |> ignore;
            for i = 1 to 100 do
              ignore
                (check_ok "ins"
                   (Dmx_db.Db.insert db ctx ~relation:"employee"
                      (emp i (Fmt.str "u%d" i) (Fmt.str "d%d" (i mod 9))
                         (i mod 120))))
            done;
            check_ok "pk"
              (Dmx_db.Db.create_attachment db ctx ~relation:"employee"
                 ~attachment_type:"btree_index" ~name:"pk"
                 ~attrs:[ ("fields", "id"); ("unique", "true") ] ());
            check_ok "hash"
              (Dmx_db.Db.create_attachment db ctx ~relation:"employee"
                 ~attachment_type:"hash_index" ~name:"hd"
                 ~attrs:[ ("fields", "dept") ] ());
            (* through the planner and chosen access path *)
            let planned =
              check_ok "query"
                (Dmx_db.Db.query db ctx
                   (Dmx_query.Query.select ~where "employee")
                   ())
            in
            (* naive: full storage scan + the same predicate *)
            let desc = check_ok "find" (Dmx_ddl.Ddl.find_relation ctx "employee") in
            let pred = Dmx_expr.Parse.parse_exn emp_schema where in
            let scan = check_ok "scan" (Relation.scan ctx desc ()) in
            let naive =
              Dmx_core.Scan_help.record_scan_to_list scan
              |> List.map snd
              |> List.filter (fun r -> Dmx_expr.Eval.test r pred)
            in
            let norm rows =
              rows |> List.map Record.to_string |> List.sort compare
            in
            Ok (norm planned = norm naive))
      in
      Dmx_db.Db.close db;
      match result with
      | Ok b -> b
      | Error e -> QCheck.Test.fail_report (Error.to_string e))

(* ------------------------------------------------------------------ *)
(* Codec round-trips and record-key order laws                          *)
(* ------------------------------------------------------------------ *)

let value_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.Null);
        (2, map (fun b -> Value.Bool b) bool);
        (4, map (fun i -> Value.Int i) ui64);
        ( 4,
          oneofl
            [
              Value.Int Int64.min_int;
              Value.Int Int64.max_int;
              Value.Int 0L;
              Value.Int (-1L);
            ] );
        ( 3,
          map
            (fun f -> Value.Float f)
            (oneof [ float; oneofl [ 0.; -0.; infinity; neg_infinity; 1e-308 ] ])
        );
        (4, map (fun s -> Value.String s) (string_size (int_range 0 64)));
        ( 1,
          oneofl
            [ Value.String "\000\255\n"; Value.String (String.make 300 'x') ] );
      ])

let arb_value = QCheck.make value_gen ~print:Value.to_string

let arb_record =
  QCheck.make
    QCheck.Gen.(map Array.of_list (list_size (int_range 0 8) value_gen))
    ~print:Record.to_string

let prop_value_codec_roundtrip =
  QCheck.Test.make ~name:"value codec roundtrip" ~count:500 arb_value
    (fun v ->
      let e = Codec.Enc.create () in
      Codec.Enc.value e v;
      let d = Codec.Dec.of_string (Codec.Enc.to_string e) in
      let v' = Codec.Dec.value d in
      Codec.Dec.at_end d && Value.equal v v')

let prop_record_codec_roundtrip =
  QCheck.Test.make ~name:"record codec roundtrip" ~count:200 arb_record
    (fun r ->
      let b = Codec.encode_record r in
      Record.equal r (Codec.decode_record b)
      && Codec.record_end (Bytes.to_string b) 0 = Bytes.length b)

let key_gen =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun page slot -> Record_key.rid ~page ~slot)
          (int_range 0 100_000) (int_range 0 512);
        map
          (fun vs -> Record_key.fields (Array.of_list vs))
          (list_size (int_range 0 4)
             (* NaN floats break compare's totality by design; keys never
                contain them (indexable columns reject NaN upstream) *)
             (value_gen
             |> map (function
                  | Value.Float f when Float.is_nan f -> Value.Float 0.
                  | v -> v)));
      ])

let arb_key = QCheck.make key_gen ~print:Record_key.to_string

let arb_key3 = QCheck.(triple arb_key arb_key arb_key)

let prop_record_key_order =
  QCheck.Test.make ~name:"record key total order laws" ~count:500 arb_key3
    (fun (a, b, c) ->
      let sgn n = compare n 0 in
      (* antisymmetry *)
      sgn (Record_key.compare a b) = -sgn (Record_key.compare b a)
      (* equal agrees with compare *)
      && Record_key.equal a b = (Record_key.compare a b = 0)
      (* transitivity *)
      && (not (Record_key.compare a b <= 0 && Record_key.compare b c <= 0)
         || Record_key.compare a c <= 0)
      (* equal keys hash equally *)
      && (not (Record_key.equal a b) || Record_key.hash a = Record_key.hash b))

let prop_record_key_codec =
  QCheck.Test.make ~name:"record key codec roundtrip preserves order"
    ~count:300
    QCheck.(pair arb_key arb_key)
    (fun (a, b) ->
      let rt k = Record_key.decode (Record_key.encode k) in
      let a', b' = (rt a, rt b) in
      let b_enc = Bytes.to_string (Record_key.encode b) in
      Record_key.end_at b_enc 0 = String.length b_enc
      && Record_key.equal a a' && Record_key.equal b b'
      && compare (Record_key.compare a b) 0
         = compare (Record_key.compare a' b') 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_value_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_record_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_record_key_order;
    QCheck_alcotest.to_alcotest prop_record_key_codec;
    QCheck_alcotest.to_alcotest prop_planner_equals_naive;
    QCheck_alcotest.to_alcotest prop_heap_dispatch;
    QCheck_alcotest.to_alcotest prop_insert_many_equiv_heap;
    QCheck_alcotest.to_alcotest prop_insert_many_equiv_memory;
    QCheck_alcotest.to_alcotest prop_insert_many_equiv_btree;
    QCheck_alcotest.to_alcotest prop_btree_org_dispatch;
    QCheck_alcotest.to_alcotest prop_memory_dispatch;
    QCheck_alcotest.to_alcotest prop_abort_restores;
    QCheck_alcotest.to_alcotest ~long:true prop_crash_recovery;
  ]
