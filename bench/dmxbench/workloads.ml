(* The three workloads: their data, models, operations and result checks.

   One process, one client, closed loop: each operation starts when the
   previous one has returned. Every workload runs against a durable,
   file-backed database with group commit at its default window of 1, so
   every commit forces its pages and fsyncs the log. Inputs come from the
   seed alone; every result is checked against a bench-side model. *)

open Dmx_value
open Util
module Db = Dmx_db.Db
module Query = Dmx_query.Query
module Services = Dmx_core.Services
module Error = Dmx_core.Error

(* ---- result checks and the failure tally ---- *)

exception Check_failed of string

let bad fmt = Fmt.kstr (fun s -> raise (Check_failed s)) fmt

let expect what = function
  | Ok v -> v
  | Error e -> bad "%s: %s" what (Error.to_string e)

(* The measured phase is cut into [windows] consecutive windows, and each
   timing metric summarises its per-window values (see [Util.better_quartile]),
   so a burst of load from outside the process spoils windows, not the run. *)
let windows = 10

type tally = {
  op_lat : Samples.t array;  (* us per operation, per window *)
  commit_lat : Samples.t array;  (* us per Db.commit, per window *)
  mutable window : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* first few messages *)
  mutable vetoes : int;  (* expected check vetoes seen, measured phase *)
}

let new_tally () =
  {
    op_lat = Array.init windows (fun _ -> Samples.create ());
    commit_lat = Array.init windows (fun _ -> Samples.create ());
    window = 0;
    attempted = 0;
    failed = 0;
    failures = [];
    vetoes = 0;
  }

let tally = ref (new_tally ())
let measuring = ref false

let attempt f =
  let t = !tally in
  t.attempted <- t.attempted + 1;
  match f () with
  | () -> ()
  | exception Check_failed msg ->
    t.failed <- t.failed + 1;
    if List.length t.failures < 5 then t.failures <- msg :: t.failures

(* ---- Db calls: every one is a root span of the traced mode ---- *)

let db_layer = Ledger.layer "db"
let us_since t0 = float_of_int (now_ns () - t0) /. 1e3

let query db ctx q params =
  expect (Query.key q)
    (Ledger.call db_layer "query" (fun () -> Db.query db ctx q ~params ()))

(* Run [f] in a transaction; [f] returns the model update to apply once the
   commit has returned. A failed check aborts the transaction. *)
let txn db f =
  let ctx = Ledger.call db_layer "begin" (fun () -> Db.begin_txn db) in
  match f ctx with
  | apply ->
    let t0 = now_ns () in
    Ledger.call db_layer "commit" (fun () -> Db.commit db ctx);
    if !measuring then begin
      let t = !tally in
      Samples.add t.commit_lat.(t.window) (us_since t0)
    end;
    apply ()
  | exception (Check_failed _ as e) ->
    Ledger.call db_layer "abort" (fun () -> Db.abort db ctx);
    raise e

let unit_txn db f =
  txn db (fun ctx ->
      f ctx;
      fun () -> ())

(* ---- data ---- *)

let emp_schema =
  Schema.make_exn
    [ Schema.column ~nullable:false "id" Value.Tint;
      Schema.column ~nullable:false "name" Value.Tstring;
      Schema.column ~nullable:false "dept" Value.Tint;
      Schema.column ~nullable:false "salary" Value.Tint ]

let dept_schema =
  Schema.make_exn
    [ Schema.column ~nullable:false "dno" Value.Tint;
      Schema.column ~nullable:false "dname" Value.Tstring;
      Schema.column ~nullable:false "budget" Value.Tint ]

let name_of i = Printf.sprintf "e%07d" i
let emp id ~dept ~salary =
  [| Value.int id; Value.String (name_of id); Value.int dept; Value.int salary |]

let int_field (r : Record.t) i =
  match r.(i) with Value.Int v -> Int64.to_int v | _ -> min_int

let encoded_bytes r = Bytes.length (Codec.encode_record r)

(* Sizes scale linearly and stay multiples of 100, so the scan workload's
   closed forms hold at every scale. *)
let scaled n scale =
  max 100 (int_of_float (Float.round (float_of_int n *. scale /. 100.)) * 100)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Bulk load in transactions of [chunk] rows, in [order]; reports each
   record key. *)
let load_rows db ~relation rows order on_key =
  let chunk = 5000 in
  let n = Array.length order in
  let rec go start =
    if start < n then begin
      let len = min chunk (n - start) in
      let batch = Array.init len (fun k -> rows.(order.(start + k))) in
      let keys =
        expect "load"
          (Db.with_txn db (fun ctx -> Db.insert_many db ctx ~relation batch))
      in
      Array.iteri (fun k key -> on_key order.(start + k) key) keys;
      go (start + len)
    end
  in
  go 0

let ddl db f = ignore (expect "ddl" (Db.with_txn db (fun ctx -> f ctx; Ok ())))

let create db ctx name ?(storage_method = "heap") ?(attrs = []) schema =
  ignore
    (expect ("create " ^ name)
       (Db.create_relation db ctx ~name ~schema ~storage_method ~attrs ()))

let attach db ctx relation attachment_type name attrs =
  expect ("attach " ^ name)
    (Db.create_attachment db ctx ~relation ~attachment_type ~name ~attrs ())

let one_row what expected rows =
  match rows with
  | [ r ] when Record.equal r expected -> ()
  | [ r ] -> bad "%s: got %a, the model has %a" what Record.pp r Record.pp expected
  | _ -> bad "%s: %d rows, the model has one" what (List.length rows)

(* ---- a workload ---- *)

(* One instance is a model generated from the seed plus the closures that
   drive and check the database against it. *)
type instance = {
  load : Db.t -> unit;  (* create and load a fresh database *)
  op : Db.t -> int -> unit;  (* operation [i]: one transaction *)
  in_flight : Db.t -> unit;  (* begin a transaction and leave it open *)
  audit : Db.t -> unit;  (* after restart *)
  live_bytes : unit -> int;  (* encoded bytes of the live records *)
  shapes : (Query.t * Value.t array) list;  (* for explain analyze *)
}

type spec = {
  name : string;
  pool : int;  (* buffer-pool frames *)
  ckpt_bytes : int;  (* automatic checkpoint every N log bytes; 0 = off *)
  ops : int;  (* measured operations at scale 1 without --seconds *)
  warmup : int;  (* untimed operations before measuring, at scale 1 *)
  cycle_ops : int;  (* committed operations before each crash *)
  make : seed:int -> scale:float -> instance;
}

(* ---- oltp_point: short statements over a cached table ---- *)

let oltp ~seed ~scale =
  let n = scaled 20_000 scale in
  let data = Random.State.make [| seed; 1 |] in
  let rng = Random.State.make [| seed; 2 |] in
  let check_rng = Random.State.make [| seed; 3 |] in
  let rows =
    Array.init n (fun i ->
        emp i ~dept:(Random.State.int data 100)
          ~salary:(1 + Random.State.int data 100_000))
  in
  let keys = Array.make n (Record_key.rid ~page:0 ~slot:0) in
  let q_id = Query.select ~where:"id = ?0" "emp" in
  let q_name = Query.select ~where:"name = ?0" "emp" in
  let load db =
    ddl db (fun ctx -> create db ctx "emp" emp_schema);
    let order = Array.init n Fun.id in
    shuffle data order;
    load_rows db ~relation:"emp" rows order (fun i k -> keys.(i) <- k);
    ddl db (fun ctx ->
        attach db ctx "emp" "btree_index" "emp_id"
          [ ("fields", "id"); ("unique", "true") ];
        attach db ctx "emp" "hash_index" "emp_name"
          [ ("fields", "name"); ("buckets", "1024") ])
  in
  let update db ctx u salary_delta =
    let r = Array.copy rows.(u) in
    r.(3) <- Value.int (int_field r 3 + salary_delta);
    let k =
      expect "update"
        (Ledger.call db_layer "update" (fun () ->
             Db.update db ctx ~relation:"emp" keys.(u) r))
    in
    (r, k)
  in
  let op db _i =
    txn db (fun ctx ->
        for _ = 1 to 3 do
          let id = Random.State.int rng n in
          one_row "id = ?0" rows.(id) (query db ctx q_id [| Value.int id |])
        done;
        let id = Random.State.int rng n in
        one_row "name = ?0" rows.(id)
          (query db ctx q_name [| Value.String (name_of id) |]);
        let u = Random.State.int rng n in
        let r, k = update db ctx u 1 in
        fun () ->
          rows.(u) <- r;
          keys.(u) <- k)
  in
  let in_flight db =
    let ctx = Db.begin_txn db in
    ignore (update db ctx (Random.State.int rng n) 1000)
  in
  let audit db =
    unit_txn db (fun ctx ->
        for _ = 1 to 50 do
          let id = Random.State.int check_rng n in
          one_row "audit id = ?0" rows.(id) (query db ctx q_id [| Value.int id |]);
          one_row "audit name = ?0" rows.(id)
            (query db ctx q_name [| Value.String (name_of id) |])
        done)
  in
  {
    load;
    op;
    in_flight;
    audit;
    live_bytes = (fun () -> Array.fold_left (fun a r -> a + encoded_bytes r) 0 rows);
    shapes =
      [ (q_id, [| Value.int (n / 2) |]);
        (q_name, [| Value.String (name_of (n / 3)) |]) ];
  }

(* ---- scan_report: read-only reports over a larger-than-cache database ----

   Heap row i (in 0..h-1) has dept = i mod 100 and salary = 10000 + i / 100,
   so each department holds salaries 10000 .. 10000 + h/100 - 1 once each and
   [salary > 10000 + r AND dept = d] matches exactly h/100 - 1 - r rows (the
   join adds one dept row to each). The btree relation holds ids 0..b-1, so a
   range of [range] keys matches [range] rows. *)

let scan ~seed ~scale =
  let h = scaled 100_000 scale and b = scaled 50_000 scale in
  let per_dept = h / 100 in
  let range = max 1 (min b (int_of_float (Float.round (5000. *. scale)))) in
  let data = Random.State.make [| seed; 1 |] in
  let rng = Random.State.make [| seed; 2 |] in
  let row i = emp i ~dept:(i mod 100) ~salary:(10_000 + (i / 100)) in
  let depts =
    Array.init 100 (fun d ->
        [| Value.int d; Value.String (Printf.sprintf "dept%02d" d);
           Value.int (1000 * (1 + Random.State.int data 100)) |])
  in
  let q_filter = Query.select ~where:"salary > ?0 AND dept = ?1" "emp" in
  let q_range = Query.select ~where:"id >= ?0 AND id < ?1" "emp_bt" in
  let q_join =
    Query.join ~where:"salary > ?0 AND dept = ?1" "emp" ~on:("dept", "dept", "dno")
  in
  let load db =
    ddl db (fun ctx ->
        create db ctx "emp" emp_schema;
        create db ctx "emp_bt" ~storage_method:"btree" ~attrs:[ ("key", "id") ]
          emp_schema;
        create db ctx "dept" dept_schema);
    let order = Array.init h Fun.id in
    shuffle data order;
    load_rows db ~relation:"emp" (Array.init h row) order (fun _ _ -> ());
    load_rows db ~relation:"emp_bt" (Array.init b row) (Array.init b Fun.id)
      (fun _ _ -> ());
    load_rows db ~relation:"dept" depts (Array.init 100 Fun.id) (fun _ _ -> ())
  in
  (* one report query of [shape], its parameters drawn from the seed *)
  let report db ctx shape =
    let q, params, expected =
      if shape = 1 then begin
        let lo = Random.State.int rng (b - range + 1) in
        (q_range, [| Value.int lo; Value.int (lo + range) |], range)
      end
      else begin
        let r = Random.State.int rng per_dept in
        let d = Random.State.int rng 100 in
        ( (if shape = 0 then q_filter else q_join),
          [| Value.int (10_000 + r); Value.int d |],
          per_dept - 1 - r )
      end
    in
    let n = List.length (query db ctx q params) in
    if n <> expected then bad "%s: %d rows, closed form %d" (Query.key q) n expected
  in
  let op db i = unit_txn db (fun ctx -> report db ctx (i mod 3)) in
  let in_flight db = report db (Db.begin_txn db) 0 in
  let audit db = unit_txn db (fun ctx -> for s = 0 to 2 do report db ctx s done) in
  let live_bytes =
    let sum n f =
      Seq.fold_left (fun a i -> a + encoded_bytes (f i)) 0 (Seq.init n Fun.id)
    in
    let total = sum h row + sum b row + sum 100 (Array.get depts) in
    fun () -> total
  in
  {
    load;
    op;
    in_flight;
    audit;
    live_bytes;
    shapes =
      [ (q_filter, [| Value.int (10_000 + (per_dept / 2)); Value.int 7 |]);
        (q_range, [| Value.int 0; Value.int range |]);
        (q_join, [| Value.int (10_000 + (per_dept / 2)); Value.int 7 |]) ];
  }

(* ---- ingest_churn: attachment maintenance, vetoes, checkpoints, restart --

   Every 40th batch carries one row with salary -1, which the check
   attachment vetoes; insert_many then rolls the whole batch back and the
   transaction goes on with its deletes. *)

let batch_rows = 50
let deletes_per_txn = 10
let veto_period = 40

type live = {
  mutable ids : int array;  (* live ids, unordered *)
  mutable len : int;
  pos : (int, int) Hashtbl.t;  (* id -> index in [ids] *)
  rows : (int, Record_key.t * Record.t) Hashtbl.t;
  dept_count : int array;
  dept_sum : int array;
  mutable salary_sum : int;
}

let live_add l id key (r : Record.t) =
  if l.len = Array.length l.ids then begin
    let bigger = Array.make (2 * l.len) 0 in
    Array.blit l.ids 0 bigger 0 l.len;
    l.ids <- bigger
  end;
  l.ids.(l.len) <- id;
  Hashtbl.replace l.pos id l.len;
  l.len <- l.len + 1;
  Hashtbl.replace l.rows id (key, r);
  let d = int_field r 2 and s = int_field r 3 in
  l.dept_count.(d) <- l.dept_count.(d) + 1;
  l.dept_sum.(d) <- l.dept_sum.(d) + s;
  l.salary_sum <- l.salary_sum + s

let live_remove l id =
  let i = Hashtbl.find l.pos id in
  let last = l.ids.(l.len - 1) in
  l.ids.(i) <- last;
  Hashtbl.replace l.pos last i;
  l.len <- l.len - 1;
  Hashtbl.remove l.pos id;
  let _, r = Hashtbl.find l.rows id in
  Hashtbl.remove l.rows id;
  let d = int_field r 2 and s = int_field r 3 in
  l.dept_count.(d) <- l.dept_count.(d) - 1;
  l.dept_sum.(d) <- l.dept_sum.(d) - s;
  l.salary_sum <- l.salary_sum - s

let ingest ~seed ~scale =
  let n0 = scaled 20_000 scale in
  let data = Random.State.make [| seed; 1 |] in
  let rng = Random.State.make [| seed; 2 |] in
  let check_rng = Random.State.make [| seed; 3 |] in
  let row rng id ~bad =
    let dept = Random.State.int rng 100 in
    let salary = 1 + Random.State.int rng 10_000 in
    emp id ~dept ~salary:(if bad then -1 else salary)
  in
  let initial = Array.init n0 (fun id -> row data id ~bad:false) in
  let live =
    {
      ids = Array.make (2 * n0) 0;
      len = 0;
      pos = Hashtbl.create (2 * n0);
      rows = Hashtbl.create (2 * n0);
      dept_count = Array.make 100 0;
      dept_sum = Array.make 100 0;
      salary_sum = 0;
    }
  in
  let next_id = ref n0 in
  let in_flight_ids = ref [] in
  let q_all = Query.select "ev" in
  let q_id = Query.select ~where:"id = ?0" "ev" in
  let q_name = Query.select ~where:"name = ?0" "ev" in
  let load db =
    ddl db (fun ctx -> create db ctx "ev" emp_schema);
    load_rows db ~relation:"ev" initial (Array.init n0 Fun.id) (fun id k ->
        live_add live id k initial.(id));
    ddl db (fun ctx ->
        attach db ctx "ev" "btree_index" "ev_id"
          [ ("fields", "id"); ("unique", "true") ];
        attach db ctx "ev" "hash_index" "ev_name"
          [ ("fields", "name"); ("buckets", "1024") ];
        attach db ctx "ev" "check" "ev_salary" [ ("predicate", "salary > 0") ];
        attach db ctx "ev" "agg" "ev_agg" [ ("group", "dept"); ("sum", "salary") ];
        attach db ctx "ev" "stats" "ev_stats" [ ("fields", "salary") ])
  in
  (* distinct live ids to delete *)
  let victims () =
    let rec pick acc k =
      if k = 0 then acc
      else
        let id = live.ids.(Random.State.int rng live.len) in
        if List.mem id acc then pick acc k else pick (id :: acc) (k - 1)
    in
    pick [] deletes_per_txn
  in
  (* The batch and the deletes of operation [i], inside [ctx]; returns the
     model update. *)
  let churn db ctx i =
    let seeded_bad = i mod veto_period = veto_period - 1 in
    let bad_at = Random.State.int rng batch_rows in
    let base = !next_id in
    next_id := base + batch_rows;
    let batch =
      Array.init batch_rows (fun k -> row rng (base + k) ~bad:(seeded_bad && k = bad_at))
    in
    let victims = victims () in
    let inserted =
      match
        Ledger.call db_layer "insert_many" (fun () ->
            Db.insert_many db ctx ~relation:"ev" batch)
      with
      | Ok keys when not seeded_bad -> keys
      | Ok _ -> bad "batch %d with salary -1 was accepted" i
      | Error (Error.Veto _) when seeded_bad ->
        if !measuring then !tally.vetoes <- !tally.vetoes + 1;
        [||]
      | Error e -> bad "insert_many: %s" (Error.to_string e)
    in
    List.iter
      (fun id ->
        let key, r = Hashtbl.find live.rows id in
        match
          Ledger.call db_layer "delete" (fun () -> Db.delete db ctx ~relation:"ev" key)
        with
        | Ok old when Record.equal old r -> ()
        | Ok _ -> bad "delete %d returned another record" id
        | Error e -> bad "delete %d: %s" id (Error.to_string e))
      victims;
    (batch, inserted, victims)
  in
  let op db i =
    txn db (fun ctx ->
        let batch, inserted, victims = churn db ctx i in
        fun () ->
          Array.iteri
            (fun k key -> live_add live (int_field batch.(k) 0) key batch.(k))
            inserted;
          List.iter (live_remove live) victims)
  in
  let in_flight db =
    let ctx = Db.begin_txn db in
    (* an operation index that never carries a vetoed row *)
    let batch, _, _ = churn db ctx 0 in
    in_flight_ids := Array.to_list (Array.map (fun r -> int_field r 0) batch)
  in
  let audit db =
    unit_txn db (fun ctx ->
        let rows = query db ctx q_all [||] in
        if List.length rows <> live.len then
          bad "audit: %d rows after restart, %d acknowledged" (List.length rows) live.len;
        List.iter
          (fun r ->
            match Hashtbl.find_opt live.rows (int_field r 0) with
            | Some (_, r') when Record.equal r r' -> ()
            | Some _ | None ->
              bad "audit: row %d is not the acknowledged one" (int_field r 0))
          rows;
        for _ = 1 to 50 do
          let id = live.ids.(Random.State.int check_rng live.len) in
          let _, r = Hashtbl.find live.rows id in
          one_row "audit id = ?0" r (query db ctx q_id [| Value.int id |]);
          one_row "audit name = ?0" r
            (query db ctx q_name [| Value.String (name_of id) |])
        done;
        List.iter
          (fun id ->
            if query db ctx q_id [| Value.int id |] <> [] then
              bad "audit: in-flight row %d survived the crash" id)
          !in_flight_ids;
        let desc = expect "relation ev" (Db.relation db ctx "ev") in
        let groups = Dmx_attach.Agg.groups ctx desc ~name:"ev_agg" in
        let nonempty =
          Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 live.dept_count
        in
        if List.length groups <> nonempty then
          bad "audit: agg has %d groups, model %d" (List.length groups) nonempty;
        List.iter
          (fun (g : Dmx_attach.Agg.group) ->
            let d = int_field g.group_values 0 in
            if d < 0 || d >= 100 || g.count <> live.dept_count.(d)
               || Int64.to_int g.sum <> live.dept_sum.(d)
            then bad "audit: agg group %d is (%d, %Ld)" d g.count g.sum)
          groups;
        match Dmx_attach.Stats.get ctx desc ~name:"ev_stats" with
        | None -> bad "audit: stats instance missing"
        | Some s ->
          let sum =
            List.fold_left
              (fun a (f : Dmx_attach.Stats.field_stats) ->
                if f.field = 3 then Int64.to_int f.sum else a)
              min_int s.per_field
          in
          if s.live_count <> live.len || sum <> live.salary_sum then
            bad "audit: stats (%d rows, sum %d), model (%d, %d)" s.live_count sum
              live.len live.salary_sum)
  in
  {
    load;
    op;
    in_flight;
    audit;
    live_bytes =
      (fun () -> Hashtbl.fold (fun _ (_, r) a -> a + encoded_bytes r) live.rows 0);
    shapes =
      [ (q_all, [||]);
        (q_id, [| Value.int (n0 / 2) |]);
        (q_name, [| Value.String (name_of (n0 / 3)) |]) ];
  }

let specs =
  [ { name = "oltp_point"; pool = 2048; ckpt_bytes = 0; ops = 18_000;
      warmup = 1_000; cycle_ops = 100; make = oltp };
    { name = "scan_report"; pool = 256; ckpt_bytes = 0; ops = 1_300; warmup = 60;
      cycle_ops = 0; make = scan };
    { name = "ingest_churn"; pool = 256; ckpt_bytes = 1 lsl 20; ops = 1_000;
      warmup = 100; cycle_ops = 2; make = ingest } ]
