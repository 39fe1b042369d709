(* The hash index layout: directory pages, bucket pages that split their
   range of logical buckets when full, overflow chains for single-bucket
   pages. A model-based property drives adds, removes, updates and
   savepoint rollbacks against a map and checks the page layout after every
   step; a crash test checks that restart re-runs committed splits and
   undoes a loser's. *)
open Dmx_value
open Dmx_core
open Test_util
module Ddl = Dmx_ddl.Ddl
module Hash_index = Dmx_attach.Hash_index
module Fault_disk = Dmx_page.Fault_disk
module Imap = Map.Make (Int)

(* Key lengths cross 128 bytes, so string lengths take one- and two-byte
   varints; about 20 to 40 entries fill a page. *)
let dept_of k = Fmt.str "%s%d" (String.make (90 + (25 * k)) 'd') k
let n_depts = 6
let loser_of i = Fmt.str "%s%d" (String.make 150 'x') i

let layout ctx =
  let desc = check_ok "find" (Ddl.find_relation ctx "t") in
  match Hash_index.check_invariants ctx desc with
  | Ok pages -> pages
  | Error msg -> Alcotest.failf "layout: %s" msg

let hits ctx key =
  let desc = check_ok "find" (Ddl.find_relation ctx "t") in
  check_ok "lookup"
    (Relation.lookup ctx desc
       ~attachment_id:(Option.get (Registry.attachment_id "hash_index"))
       ~instance:1 ~key)
  |> List.sort Record_key.compare

let create_indexed ctx ~storage_method ~attrs ~buckets =
  ignore
    (check_ok "create"
       (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema ~storage_method
          ~attrs ()));
  check_ok "hash"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"hash_index"
       ~name:"h"
       ~attrs:[ ("fields", "dept"); ("buckets", string_of_int buckets) ]
       ())

(* ---- DDL and the bucket mapping ---- *)

let test_buckets_range () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  ignore
    (check_ok "create"
       (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
          ~storage_method:"heap" ()));
  let create name attrs =
    Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"hash_index"
      ~name ~attrs:(("fields", "dept") :: attrs) ()
  in
  List.iter
    (fun n ->
      match create "bad" [ ("buckets", n) ] with
      | Error (Error.Ddl_error msg) ->
        Alcotest.(check bool)
          (Fmt.str "buckets=%s names 1..4096" n)
          true
          (Astring_contains.contains msg "1..4096")
      | Error e -> Alcotest.failf "buckets=%s: %s" n (Error.to_string e)
      | Ok () -> Alcotest.failf "buckets=%s accepted" n)
    [ "0"; "4097"; "-3"; "5000" ];
  check_ok "default" (create "h" []);
  check_ok "largest" (create "h4096" [ ("buckets", "4096") ]);
  check_ok "smallest" (create "h1" [ ("buckets", "1") ]);
  let desc = check_ok "find" (Ddl.find_relation ctx "t") in
  ignore (check_ok "ins" (Relation.insert ctx desc (emp 1 "a" "eng" 1)));
  Alcotest.(check int) "three indexes, one bucket page each" 3 (layout ctx);
  Services.commit services ctx

let test_bucket_of_hash () =
  List.iter
    (fun n ->
      List.iter
        (fun h ->
          let b = Hash_index.bucket_of_hash h n in
          Alcotest.(check bool)
            (Fmt.str "bucket_of_hash %d %d = %d in range" h n b)
            true
            (b >= 0 && b < n))
        [ min_int; max_int; -1; 0; 1; min_int + 1 ])
    [ 1000; 1024; 1 ];
  Alcotest.(check int) "min_int" 0 (Hash_index.bucket_of_hash min_int 1000);
  Alcotest.(check int) "max_int mod 1000" (max_int mod 1000)
    (Hash_index.bucket_of_hash max_int 1000);
  Alcotest.(check int) "max_int mod 1024" 1023
    (Hash_index.bucket_of_hash max_int 1024)

(* ---- model ---- *)

type step =
  | Add of int  (* dept *)
  | Remove of int  (* the nth live row *)
  | Update of int * int  (* the nth live row moves to a dept *)
  | Savepoint
  | Rollback

let pp_step ppf = function
  | Add k -> Fmt.pf ppf "add %d" k
  | Remove i -> Fmt.pf ppf "remove #%d" i
  | Update (i, k) -> Fmt.pf ppf "update #%d to %d" i k
  | Savepoint -> Fmt.string ppf "savepoint"
  | Rollback -> Fmt.string ppf "rollback"

let arb_steps =
  QCheck.make
    ~print:(Fmt.str "%a" Fmt.(list ~sep:(any "; ") pp_step))
    QCheck.Gen.(
      list_size (int_range 40 160)
        (frequency
           [
             (8, map (fun k -> Add k) (int_bound (n_depts - 1)));
             (3, map (fun i -> Remove i) nat);
             (2, map2 (fun i k -> Update (i, k)) nat (int_bound (n_depts - 1)));
             (1, return Savepoint);
             (1, return Rollback);
           ]))

(* Each live row: id -> (dept, record key). *)
let run_model ~storage_method ~attrs ~buckets steps =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  create_indexed ctx ~storage_method ~attrs ~buckets;
  let desc = check_ok "find" (Ddl.find_relation ctx "t") in
  let model = ref Imap.empty and next_id = ref 0 in
  let saved = ref [] and n_saved = ref 0 in
  let nth i =
    let live = Imap.bindings !model in
    List.nth live (i mod List.length live)
  in
  let check step =
    ignore (layout ctx);
    for k = 0 to n_depts - 1 do
      let expect =
        Imap.fold
          (fun _ (d, rk) acc -> if d = k then rk :: acc else acc)
          !model []
        |> List.sort Record_key.compare
      in
      let got = hits ctx [| vs (dept_of k) |] in
      if not (List.equal Record_key.equal expect got) then
        QCheck.Test.fail_reportf "after %a: dept %d has %d entries, model %d"
          pp_step step k (List.length got) (List.length expect)
    done
  in
  List.iter
    (fun step ->
      (match step with
      | Add k ->
        incr next_id;
        let rk =
          check_ok "insert"
            (Relation.insert ctx desc
               (emp !next_id "n" (dept_of k) !next_id))
        in
        model := Imap.add !next_id (k, rk) !model
      | Remove i when not (Imap.is_empty !model) ->
        let id, (_, rk) = nth i in
        ignore (check_ok "delete" (Relation.delete ctx desc rk));
        model := Imap.remove id !model
      | Update (i, k) when not (Imap.is_empty !model) ->
        let id, (_, rk) = nth i in
        let rk' =
          check_ok "update"
            (Relation.update ctx desc rk (emp id "n" (dept_of k) id))
        in
        model := Imap.add id (k, rk') !model
      | Remove _ | Update _ -> ()
      | Savepoint ->
        incr n_saved;
        let name = Fmt.str "sp%d" !n_saved in
        Services.savepoint ctx name;
        saved := (name, !model) :: !saved
      | Rollback -> (
        match !saved with
        | [] -> ()
        | (name, m) :: rest ->
          Services.rollback_to ctx name;
          model := m;
          saved := rest));
      check step)
    steps;
  Services.commit services ctx;
  true

let prop_heap =
  QCheck.Test.make ~name:"hash layout matches a model (heap record keys)"
    ~count:25 arb_steps
    (run_model ~storage_method:"heap" ~attrs:[] ~buckets:8)

let prop_btree =
  QCheck.Test.make
    ~name:"hash layout matches a model (field record keys, 1 bucket)"
    ~count:15 arb_steps
    (run_model ~storage_method:"btree" ~attrs:[ ("key", "id") ] ~buckets:1)

(* A savepoint rollback must find the bytes of every record it reinstates.
   An undone insert used to leave its slot in the page's directory, so a
   page that was full before a delete came back 4 bytes short per undone
   insert when that delete was undone. The steps are a failing case of
   [prop_heap], shrunk: the last rollback reinstates a deleted record on a
   page whose directory ended in released slots. *)
let test_rollback_reinstates () =
  ignore
    (run_model ~storage_method:"heap" ~attrs:[] ~buckets:8
       [
         Savepoint; Add 2; Update (630, 4); Add 5; Remove 0; Add 0; Remove 6;
         Rollback; Add 1; Remove 9; Add 3; Add 3; Remove 3; Add 5; Add 3;
         Add 5; Add 1; Add 4; Remove 910; Add 4; Add 5; Add 3; Add 5; Add 4;
         Add 3; Add 3; Add 4; Remove 92; Remove 7; Remove 2; Remove 865;
         Add 0; Add 5; Add 3; Add 2; Add 1; Add 0; Add 2; Add 4; Add 5; Add 4;
         Update (53, 3); Add 1; Add 0; Add 5; Add 4; Remove 8; Add 1;
         Savepoint; Remove 354; Remove 8; Add 0; Add 1; Add 2; Rollback;
         Remove 718; Savepoint; Remove 8; Rollback; Add 3; Add 3; Remove 4;
         Remove 54; Savepoint; Add 0; Add 2; Add 1; Update (16, 1); Add 1;
         Update (435, 5); Add 5; Remove 0; Remove 4; Savepoint; Remove 1;
         Rollback; Remove 566; Add 0; Add 4; Add 1; Add 1; Add 1;
         Update (879, 5); Add 1; Rollback
       ])

(* Short rows put more than 128 records on a heap page, so record keys
   take two-byte slot varints; 10 depts over 4 logical buckets give
   single-bucket pages with overflow chains. *)
let test_short_entries () =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  ignore
    (check_ok "create"
       (Ddl.create_relation ctx ~name:"t" ~schema:emp_schema
          ~storage_method:"heap" ()));
  check_ok "hash"
    (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:"hash_index"
       ~name:"h" ~attrs:[ ("fields", "dept"); ("buckets", "4") ] ());
  let desc = check_ok "find" (Ddl.find_relation ctx "t") in
  let keys =
    Array.init 3000 (fun i ->
        check_ok "ins"
          (Relation.insert ctx desc (emp i "" (Fmt.str "d%d" (i mod 10)) i)))
  in
  Alcotest.(check bool)
    "a slot above 127" true
    (Array.exists
       (function Record_key.Rid { slot; _ } -> slot > 127 | Fields _ -> false)
       keys);
  Alcotest.(check bool) "more pages than buckets" true (layout ctx > 4);
  Array.iteri
    (fun i rk ->
      if i mod 3 = 0 then ignore (check_ok "del" (Relation.delete ctx desc rk)))
    keys;
  ignore (layout ctx);
  for d = 0 to 9 do
    let expect =
      List.filteri (fun i _ -> i mod 10 = d && i mod 3 <> 0)
        (Array.to_list keys)
      |> List.sort Record_key.compare
    in
    Alcotest.(check (list key_testable))
      (Fmt.str "d%d" d) expect
      (hits ctx [| vs (Fmt.str "d%d" d) |])
  done;
  Services.commit services ctx

(* ---- crash ---- *)

(* Committed inserts split pages and are not checkpointed; a loser then
   splits more. After power loss, restart redoes the committed adds (the
   splits with them) and undoes the loser's, whether or not the loser's
   pages reached the store. *)
let test_crash_splits () =
  List.iter
    (fun harden_loser ->
      with_temp_dir ~prefix:"dmx_hash" (fun dir ->
          ignore (Lazy.force registered);
          let fd = Fault_disk.create () in
          let open_services () =
            Services.setup ~dir ~disk:(Fault_disk.disk fd) ~pool_capacity:128
              ()
          in
          let services = open_services () in
          let ctx = Services.begin_txn services in
          create_indexed ctx ~storage_method:"heap" ~attrs:[] ~buckets:64;
          Services.commit services ctx;
          let rows ctx ~from ~count ~dept =
            let desc = check_ok "find" (Ddl.find_relation ctx "t") in
            List.init count (fun i ->
                let id = from + i in
                check_ok "ins"
                  (Relation.insert ctx desc (emp id "n" (dept id) id)))
          in
          let ctx = Services.begin_txn services in
          let before = layout ctx in
          let committed =
            rows ctx ~from:0 ~count:80 ~dept:(fun i -> dept_of (i mod n_depts))
          in
          let after_commit = layout ctx in
          Alcotest.(check bool) "committed inserts split" true
            (after_commit > before);
          Services.commit services ctx;
          let ctx = Services.begin_txn services in
          (* distinct keys spread over the 64 logical buckets: a full page
             covers several, so new pages come from splits *)
          ignore
            (rows ctx ~from:1000 ~count:120 ~dept:loser_of);
          Alcotest.(check bool) "the loser splits" true
            (layout ctx > after_commit);
          if harden_loser then
            ignore (Dmx_page.Buffer_pool.flush_all services.Services.bp);
          Services.simulate_crash services;
          Fault_disk.crash fd;
          let services = open_services () in
          let ctx = Services.begin_txn services in
          ignore (layout ctx);
          List.iteri
            (fun i rk ->
              let got = hits ctx [| vs (dept_of (i mod n_depts)) |] in
              if not (List.exists (Record_key.equal rk) got) then
                Alcotest.failf "committed row %d lost (hardened loser: %b)" i
                  harden_loser)
            committed;
          for i = 1000 to 1119 do
            Alcotest.(check int)
              (Fmt.str "loser key %d gone" i)
              0
              (List.length (hits ctx [| vs (loser_of i) |]))
          done;
          Alcotest.(check int) "committed rows" 80
            (count_records ctx (check_ok "find" (Ddl.find_relation ctx "t")));
          Services.commit services ctx;
          Services.close services))
    [ false; true ]

(* A split moves entries the last checkpoint already put on the store, and
   its pages reach the store one at a time. Here the store keeps every page
   written before the crash, not only what a sync hardened: after a
   checkpoint, one transaction commits a split and a loser makes another,
   then some subset of the dirty pages is written and the process dies.
   Every subset must restart to exactly the committed keys and a whole
   layout. *)
let partial_split_episode pick =
  with_temp_dir ~prefix:"dmx_hash_partial" (fun dir ->
      let fd = Fault_disk.create () in
      let open_services () =
        Services.setup ~dir ~disk:(Fault_disk.disk fd) ~pool_capacity:128 ()
      in
      let s = open_services () in
      let ctx = Services.begin_txn s in
      create_indexed ctx ~storage_method:"heap" ~attrs:[] ~buckets:64;
      Services.commit s ctx;
      let insert ctx i =
        let desc = check_ok "find" (Ddl.find_relation ctx "t") in
        ignore
          (check_ok "ins" (Relation.insert ctx desc (emp i "n" (loser_of i) i)))
      in
      (* insert from [i] until the index gains a page; the next key *)
      let until_split ctx i =
        let pages = layout ctx in
        let rec go i =
          insert ctx i;
          if layout ctx > pages then i + 1 else go (i + 1)
        in
        go i
      in
      let ctx = Services.begin_txn s in
      List.iter (insert ctx) (List.init 40 Fun.id);
      Services.commit s ctx;
      ignore (Services.checkpoint s);
      let ctx = Services.begin_txn s in
      let committed = until_split ctx 40 in
      Services.commit s ctx;
      let ctx = Services.begin_txn s in
      let last = until_split ctx committed in
      let dirty =
        List.filter_map
          (fun (id, _, dirty, _, _) -> if dirty then Some id else None)
          (Dmx_page.Buffer_pool.frames s.Services.bp)
      in
      List.iteri
        (fun i id -> if pick i then Dmx_page.Buffer_pool.flush_page s.bp id)
        dirty;
      Services.simulate_crash s;
      let s = open_services () in
      let ctx = Services.begin_txn s in
      ignore (layout ctx);
      for i = 0 to last - 1 do
        let want = if i < committed then 1 else 0 in
        let got = List.length (hits ctx [| vs (loser_of i) |]) in
        if got <> want then
          Alcotest.failf "%d dirty pages: key %d found %d times, want %d"
            (List.length dirty) i got want
      done;
      Services.commit s ctx;
      Services.close s;
      List.length dirty)

let test_partial_splits () =
  ignore (Lazy.force registered);
  let n = partial_split_episode (fun _ -> false) in
  Alcotest.(check bool) "both splits leave pages dirty" true (n >= 4);
  for mask = 1 to (1 lsl n) - 1 do
    ignore (partial_split_episode (fun i -> mask land (1 lsl i) <> 0))
  done

(* An abort re-adds deleted entries to pages that other transactions have
   filled since, so its undo splits, logging nothing: the new page and then
   the directory are synced before the old page may lose the moved
   entries. Power loss after the abort then restarts from those syncs. *)
let test_undo_split () =
  ignore (Lazy.force registered);
  with_temp_dir ~prefix:"dmx_hash_undo" (fun dir ->
      let fd = Fault_disk.create () in
      let open_services () =
        Services.setup ~dir ~disk:(Fault_disk.disk fd) ~pool_capacity:128 ()
      in
      let s = open_services () in
      let ctx = Services.begin_txn s in
      create_indexed ctx ~storage_method:"heap" ~attrs:[] ~buckets:64;
      Services.commit s ctx;
      let insert ctx i =
        let desc = check_ok "find" (Ddl.find_relation ctx "t") in
        check_ok "ins" (Relation.insert ctx desc (emp i "n" (loser_of i) i))
      in
      let ctx = Services.begin_txn s in
      let keys = List.init 60 (insert ctx) in
      Services.commit s ctx;
      ignore (Services.checkpoint s);
      let a = Services.begin_txn s in
      let desc = check_ok "find" (Ddl.find_relation a "t") in
      List.iteri
        (fun i rk ->
          if i < 30 then ignore (check_ok "del" (Relation.delete a desc rk)))
        keys;
      let b = Services.begin_txn s in
      List.iter (fun i -> ignore (insert b i)) (List.init 40 (( + ) 100));
      Services.commit s b;
      let pages = layout b and syncs = Fault_disk.sync_count fd in
      Services.abort s a;
      let ctx = Services.begin_txn s in
      Alcotest.(check bool) "the abort split a page" true (layout ctx > pages);
      Alcotest.(check bool) "and synced" true (Fault_disk.sync_count fd > syncs);
      Services.commit s ctx;
      Services.simulate_crash s;
      Fault_disk.crash fd;
      let s = open_services () in
      let ctx = Services.begin_txn s in
      ignore (layout ctx);
      List.iter
        (fun i ->
          Alcotest.(check int)
            (Fmt.str "key %d" i)
            1
            (List.length (hits ctx [| vs (loser_of i) |])))
        (List.init 60 Fun.id @ List.init 40 (( + ) 100));
      Services.commit s ctx;
      Services.close s)

(* A catalog written before the hash index took directory pages holds
   per-bucket page lists this version would misread: opening refuses it
   and writes nothing. *)
let test_old_catalog_refused () =
  ignore (Lazy.force registered);
  with_temp_dir ~prefix:"dmx_hash_old" (fun dir ->
      let s = Services.setup ~dir () in
      let ctx = Services.begin_txn s in
      create_indexed ctx ~storage_method:"heap" ~attrs:[] ~buckets:4;
      Services.commit s ctx;
      Services.close s;
      let path = Filename.concat dir "catalog.dmx" in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      let cat = read path in
      let at =
        Option.get
          (Seq.find
             (fun i -> String.sub cat i 8 = "DMXCATL3")
             (Seq.init (String.length cat - 7) Fun.id))
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub cat 0 at ^ "DMXCATLG"
            ^ String.sub cat (at + 8) (String.length cat - at - 8)));
      let files () =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.map (fun f -> (f, read (Filename.concat dir f)))
      in
      let before = files () in
      (match Services.setup ~dir () with
      | _ -> Alcotest.fail "an old catalog opened"
      | exception Failure msg ->
        Alcotest.(check bool)
          ("names the old format: " ^ msg)
          true
          (Astring_contains.contains msg "DMXCATLG"));
      Alcotest.(check bool) "the store is unchanged" true (files () = before))

(* A fault at every page-store operation (a stride of them) of a workload
   whose inserts split pages: committed transactions, a checkpoint between
   them, and a loser that checkpoints after splitting. Pools of 7, 8 and 10
   frames evict throughout, each in its own order. A power loss stops the
   workload; a one-shot write error aborts the transaction it hits, which
   must leave the layout whole (a split pins every page before it changes
   one), and the workload goes on. A fault in commit's post-commit actions
   stops the workload too, with the transaction committed. After restart
   the layout holds and the index holds exactly the committed keys. *)
module Sset = Set.Make (String)

type fault = No_fault | Crash_at of int | Write_error of int

let pp_fault ppf = function
  | No_fault -> Fmt.string ppf "none"
  | Crash_at k -> Fmt.pf ppf "crash at op %d" k
  | Write_error n -> Fmt.pf ppf "write error %d" n

let fault_episode ~pool fault =
  with_temp_dir ~prefix:"dmx_hash_sweep" (fun dir ->
      let fd = Fault_disk.create () in
      (match fault with
      | No_fault -> ()
      | Crash_at k -> Fault_disk.plan_crash_at fd k
      | Write_error n -> Fault_disk.plan_write_error fd ~nth:n);
      let open_services () =
        Services.setup ~dir ~disk:(Fault_disk.disk fd) ~pool_capacity:pool ()
      in
      let services = ref None and committed = ref Sset.empty in
      let reckeys = Hashtbl.create 128 in
      let run () =
        let s = open_services () in
        services := Some s;
        let txn ?(commit = true) f =
          let ctx = Services.begin_txn s in
          let desc = check_ok "find" (Ddl.find_relation ctx "t") in
          match f ctx desc !committed with
          | live ->
            if commit then begin
              match Services.commit s ctx with
              | () -> committed := live
              | exception e
                when ctx.Ctx.txn.Dmx_txn.Txn.state = Dmx_txn.Txn.Committed ->
                (* the fault hit a post-commit action (the heap's slot
                   release): the commit record is durable, so restart
                   redoes the transaction as a winner *)
                committed := live;
                raise e
            end
          | exception Fault_disk.Injected { fault = Write_error; _ } ->
            Services.abort s ctx;
            let ctx = Services.begin_txn s in
            ignore (layout ctx);
            Services.commit s ctx
        in
        let insert ctx desc from count live =
          List.fold_left
            (fun live i ->
              let key = loser_of i in
              Hashtbl.replace reckeys key
                (check_ok "ins" (Relation.insert ctx desc (emp i "n" key i)));
              Sset.add key live)
            live
            (List.init count (fun j -> from + j))
        in
        let delete ctx desc from count live =
          List.fold_left
            (fun live i ->
              let key = loser_of i in
              if Sset.mem key live then
                ignore
                  (check_ok "del"
                     (Relation.delete ctx desc (Hashtbl.find reckeys key)));
              Sset.remove key live)
            live
            (List.init count (fun j -> from + j))
        in
        let ctx = Services.begin_txn s in
        create_indexed ctx ~storage_method:"heap" ~attrs:[] ~buckets:16;
        Services.commit s ctx;
        txn (fun ctx desc live -> insert ctx desc 0 60 live);
        txn (fun ctx desc live ->
            insert ctx desc 60 40 (delete ctx desc 0 20 live));
        ignore (Services.checkpoint s);
        txn (fun ctx desc live ->
            delete ctx desc 60 10 (insert ctx desc 100 60 live));
        txn ~commit:false (fun ctx desc live ->
            let live = delete ctx desc 20 10 (insert ctx desc 160 60 live) in
            ignore (Services.checkpoint s);
            insert ctx desc 220 20 live)
      in
      (match run () with
      | () -> ()
      | exception Fault_disk.Injected _ -> ());
      let ops = Fault_disk.op_count fd and writes = Fault_disk.write_count fd in
      Option.iter Services.simulate_crash !services;
      Fault_disk.crash fd;
      Fault_disk.clear_plan fd;
      let s = open_services () in
      let ctx = Services.begin_txn s in
      (match Ddl.find_relation ctx "t" with
      | Error _ ->
        Alcotest.(check int) "no relation, nothing committed" 0
          (Sset.cardinal !committed)
      | Ok _ ->
        ignore (layout ctx);
        for i = 0 to 239 do
          let key = loser_of i in
          let expect = if Sset.mem key !committed then 1 else 0 in
          let got = List.length (hits ctx [| vs key |]) in
          if got <> expect then
            Alcotest.failf "%a: key %d found %d times, want %d" pp_fault
              fault i got expect
        done);
      Services.commit s ctx;
      Services.close s;
      (ops, writes))

let test_fault_sweep () =
  ignore (Lazy.force registered);
  List.iter
    (fun pool ->
      let ops, writes = fault_episode ~pool No_fault in
      let sweep n fault =
        let stride = max 1 (n / 150) in
        let k = ref 1 in
        while !k <= n do
          ignore (fault_episode ~pool (fault !k));
          k := !k + stride
        done
      in
      sweep ops (fun k -> Crash_at k);
      sweep writes (fun n -> Write_error n))
    [ 7; 8; 10 ]

let suite =
  [
    Alcotest.test_case "buckets outside 1..4096 refused" `Quick
      test_buckets_range;
    Alcotest.test_case "bucket_of_hash stays in range" `Quick
      test_bucket_of_hash;
    QCheck_alcotest.to_alcotest prop_heap;
    QCheck_alcotest.to_alcotest prop_btree;
    Alcotest.test_case "short entries, two-byte slots, overflow chains"
      `Quick test_short_entries;
    Alcotest.test_case "crash: committed splits redone, loser's undone"
      `Quick test_crash_splits;
    Alcotest.test_case "crash and write-error sweeps over splits" `Quick
      test_fault_sweep;
    Alcotest.test_case "crash: any subset of a split's pages lands" `Quick
      test_partial_splits;
    Alcotest.test_case "an abort's undo splits with ordered syncs" `Quick
      test_undo_split;
    Alcotest.test_case "a catalog from before directory pages is refused"
      `Quick test_old_catalog_refused;
    Alcotest.test_case "savepoint rollback reinstates into a full page"
      `Quick test_rollback_reinstates;
  ]
