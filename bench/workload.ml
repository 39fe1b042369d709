(* Workload generation and measurement helpers for the benches. *)
open Dmx_value
module Db = Dmx_db.Db
module Query = Dmx_query.Query
module Error = Dmx_core.Error
module Io_stats = Dmx_page.Io_stats
module Services = Dmx_core.Services

let ok what = function
  | Ok v -> v
  | Error e -> Error.raise_err (Error.Internal (Fmt.str "%s: %s" what (Error.to_string e)))

let fresh_db () =
  Db.register_defaults ();
  Db.open_database ()

let emp_schema =
  Schema.make_exn
    [
      Schema.column ~nullable:false "id" Value.Tint;
      Schema.column "name" Value.Tstring;
      Schema.column "dept" Value.Tstring;
      Schema.column ~nullable:false "salary" Value.Tint;
    ]

let emp_record i ~depts =
  [|
    Value.int i;
    Value.String (Fmt.str "emp%d" i);
    Value.String (Fmt.str "d%d" (i mod depts));
    Value.int (30_000 + (i mod 70_000));
  |]

(* Create + populate an employee relation; returns the record keys. *)
let seed_employees ?(name = "employee") ?(storage_method = "heap")
    ?(smethod_attrs = []) ?(depts = 100) db ctx n =
  ignore
    (ok "create"
       (Db.create_relation db ctx ~name ~schema:emp_schema ~storage_method
          ~attrs:smethod_attrs ()));
  List.init n (fun i ->
      ok "insert" (Db.insert db ctx ~relation:name (emp_record (i + 1) ~depts)))

let parcel_schema =
  Schema.make_exn
    [
      Schema.column ~nullable:false "id" Value.Tint;
      Schema.column ~nullable:false "xlo" Value.Tfloat;
      Schema.column ~nullable:false "ylo" Value.Tfloat;
      Schema.column ~nullable:false "xhi" Value.Tfloat;
      Schema.column ~nullable:false "yhi" Value.Tfloat;
    ]

(* [n] parcels on a sqrt(n) x sqrt(n) grid over [0, 1000]^2. *)
let seed_parcels ?(name = "parcel") db ctx n =
  ignore
    (ok "create" (Db.create_relation db ctx ~name ~schema:parcel_schema ()));
  let side = int_of_float (Float.round (sqrt (float_of_int n))) in
  let step = 1000. /. float_of_int side in
  for i = 0 to n - 1 do
    let x = float_of_int (i mod side) *. step in
    let y = float_of_int (i / side) *. step in
    ignore
      (ok "insert"
         (Db.insert db ctx ~relation:name
            [|
              Value.int i;
              Value.Float x;
              Value.Float y;
              Value.Float (x +. (step *. 0.8));
              Value.Float (y +. (step *. 0.8));
            |]))
  done;
  side

(* ---- measurement ---- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Logical I/O = backing-store reads + buffer-pool hits (every page access,
   cached or not), the unit the paper's cost protocol estimates. *)
let logical_io (s : Io_stats.t) = s.page_reads + s.pool_hits

let with_io db f =
  let stats = Services.io_stats db.Db.services in
  let before = Io_stats.copy stats in
  let v, secs = time f in
  let d = Io_stats.diff ~after:(Io_stats.copy stats) ~before in
  (v, secs, d)

(* A scratch directory for file-backed databases, emptied if it exists. *)
let temp_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "dmx_bench_%s_%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let rm_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let ms secs = secs *. 1000.
let us_per secs n = secs *. 1_000_000. /. float_of_int (max 1 n)
