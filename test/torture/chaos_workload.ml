(* Seeded workload scripts for the torture harness.

   Two relations exercise both record-key forms and every access-path /
   constraint / derived-data attachment shipped with the system:

   - "p" (parent): heap storage; btree unique index on id ("pk"), hash index
     on dept ("hdept"), rtree on a bounding box ("prt"), agg
     group-by-dept/sum-salary ("pagg"), stats on salary ("pstats").
   - "c" (child): btree storage keyed on id; btree non-unique index on amt
     ("camt"), refint "cfk" on pid -> p.id with ON DELETE CASCADE.
   - "b" (bulk): heap storage, no attachments, filled only by [Insert_many]
     batches of records three to a page, so one batch spans several pages
     of the harness's 8-frame pool and placement can evict a page it
     already filled.

   Everything is derived from a splitmix64 stream seeded by [seed]: the same
   seed always yields the same script, so (seed, crash-point) replays. *)

open Dmx_value

type target = Parent | Child

type op =
  | Insert of { tgt : target; id : int; pid : int; v : int }
  | Update of { tgt : target; id : int; pid : int; v : int }
  | Delete of { tgt : target; id : int }
  | Insert_many of { first : int; count : int; v : int }
      (* ids [first, first + count) into "b", one atomic batch *)
  | Savepoint
  | Rollback

type txn_script = { tx_ops : op list; tx_abort : bool }
type t = { w_seed : int; w_txns : txn_script list }

let parent_universe = 12
let child_universe = 20
let value_universe = 1000
let amt_universe = 30
let dept_count = 4

(* pid = -1 encodes NULL (exercises MATCH SIMPLE in refint). *)
let null_pid = -1

let dept_of v = Fmt.str "d%d" (v mod dept_count)
let salary_of v = 1000 + (v mod 17 * 100)
let amt_of v = v mod amt_universe

let rect_of ~id ~v =
  let xlo = (id * 7 mod 50) + (v mod 3) in
  let ylo = (id * 13 mod 50) + (v mod 5) in
  (xlo, ylo, xlo + 1 + (v mod 4), ylo + 1 + (v mod 6))

let parent_schema =
  Schema.make_exn
    [ Schema.column ~nullable:false "id" Value.Tint;
      Schema.column ~nullable:false "dept" Value.Tstring;
      Schema.column ~nullable:false "salary" Value.Tint;
      Schema.column ~nullable:false "xlo" Value.Tint;
      Schema.column ~nullable:false "ylo" Value.Tint;
      Schema.column ~nullable:false "xhi" Value.Tint;
      Schema.column ~nullable:false "yhi" Value.Tint ]

let child_schema =
  Schema.make_exn
    [ Schema.column ~nullable:false "id" Value.Tint;
      Schema.column "pid" Value.Tint;
      Schema.column ~nullable:false "amt" Value.Tint ]

let parent_record ~id ~v =
  let xlo, ylo, xhi, yhi = rect_of ~id ~v in
  [| Value.Int (Int64.of_int id); Value.String (dept_of v);
     Value.Int (Int64.of_int (salary_of v));
     Value.Int (Int64.of_int xlo); Value.Int (Int64.of_int ylo);
     Value.Int (Int64.of_int xhi); Value.Int (Int64.of_int yhi) |]

let bulk_schema =
  Schema.make_exn
    [ Schema.column ~nullable:false "id" Value.Tint;
      Schema.column ~nullable:false "pad" Value.Tstring ]

(* ~1.3 KB each: three fit a 4 KB page *)
let bulk_record ~id ~v =
  [| Value.Int (Int64.of_int id);
     Value.String (String.make 1300 (Char.chr (Char.code 'a' + (v mod 26)))) |]

let child_record ~id ~pid ~v =
  [| Value.Int (Int64.of_int id);
     (if pid = null_pid then Value.Null else Value.Int (Int64.of_int pid));
     Value.Int (Int64.of_int (amt_of v)) |]

let gen_pid rng =
  let r = Chaos_prng.int rng 10 in
  if r < 8 then Chaos_prng.int rng parent_universe else null_pid

let gen_op rng ~next_bulk =
  let tgt = if Chaos_prng.int rng 5 < 3 then Parent else Child in
  let id =
    Chaos_prng.int rng
      (match tgt with Parent -> parent_universe | Child -> child_universe)
  in
  let v = Chaos_prng.int rng value_universe in
  let pid = match tgt with Parent -> null_pid | Child -> gen_pid rng in
  match Chaos_prng.int rng 13 with
  | 0 | 1 | 2 | 3 | 4 -> Insert { tgt; id; pid; v }
  | 5 | 6 | 7 -> Update { tgt; id; pid; v }
  | 8 | 9 -> Delete { tgt; id }
  | 10 -> Savepoint
  | 11 -> Rollback
  | _ ->
    (* 4..7 records: at least two pages *)
    let count = 4 + Chaos_prng.int rng 4 in
    let first = !next_bulk in
    next_bulk := first + count;
    Insert_many { first; count; v }

let generate ~seed ~n_txns ~ops_per_txn =
  let rng = Chaos_prng.create seed in
  let next_bulk = ref 0 in
  let txn _ =
    let n = 2 + Chaos_prng.int rng (max 1 ops_per_txn) in
    let tx_ops = List.init n (fun _ -> gen_op rng ~next_bulk) in
    { tx_ops; tx_abort = Chaos_prng.int rng 8 = 0 }
  in
  { w_seed = seed; w_txns = List.init n_txns txn }

let pp_target ppf = function
  | Parent -> Fmt.string ppf "p"
  | Child -> Fmt.string ppf "c"

let pp_op ppf = function
  | Insert { tgt; id; pid; v } ->
    Fmt.pf ppf "insert %a id=%d pid=%d v=%d" pp_target tgt id pid v
  | Update { tgt; id; pid; v } ->
    Fmt.pf ppf "update %a id=%d pid=%d v=%d" pp_target tgt id pid v
  | Delete { tgt; id } -> Fmt.pf ppf "delete %a id=%d" pp_target tgt id
  | Insert_many { first; count; v } ->
    Fmt.pf ppf "insert_many b id=%d..%d v=%d" first (first + count - 1) v
  | Savepoint -> Fmt.string ppf "savepoint"
  | Rollback -> Fmt.string ppf "rollback"
