open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Lock_table = Dmx_lock.Lock_table
module Lock_mode = Dmx_lock.Lock_mode
module Txn = Dmx_txn.Txn
module Txn_mgr = Dmx_txn.Txn_mgr
module Wal = Dmx_wal.Wal
module Recovery = Dmx_wal.Recovery
module Buffer_pool = Dmx_page.Buffer_pool

include Registry.Smethod (struct
  let name = "sysview"
end)

type provider = {
  p_schema : Schema.t;
  p_rows : Ctx.t -> Record.t list;
}

(* Replace-on-reregister, like [Metrics.register_probe]: the latest database
   opened owns a provider name. *)
let providers : (string, provider) Hashtbl.t = Hashtbl.create 16 [@@dmx.global "config-immutable-after-setup"]

let register_provider ~name ~schema rows =
  Hashtbl.replace providers name { p_schema = schema; p_rows = rows }

let provider_names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) providers []
  |> List.sort compare

let provider_schema name =
  Option.map (fun p -> p.p_schema) (Hashtbl.find_opt providers name)

(* The descriptor is simply the provider name. *)
let provider_of (desc : Descriptor.t) =
  match Hashtbl.find_opt providers desc.smethod_desc with
  | Some p -> p
  | None ->
    Error.raise_err
      (Error.Internal
         (Fmt.str "sysview %S: provider %S not registered" desc.rel_name
            desc.smethod_desc))

let snapshot ctx desc = Array.of_list ((provider_of desc).p_rows ctx)

(* ---- built-in providers ---- *)

let cols specs = Schema.make_exn (List.map (fun (n, ty) -> Schema.column ~nullable:false n ty) specs)
let str s = Value.String s
let flt f = Value.Float f
let bool b = Value.Bool b

let metrics_rows _ctx =
  let counters =
    List.map
      (fun (name, v) -> [| str name; str "counter"; flt (float_of_int v) |])
      (Dmx_obs.Metrics.snapshot ())
  in
  let histograms =
    List.concat_map
      (fun (name, h) ->
        let q p =
          match Dmx_obs.Metrics.quantile h p with Some v -> v | None -> 0.
        in
        [ [| str name; str "count";
             flt (float_of_int (Dmx_obs.Metrics.histogram_count h)) |];
          [| str name; str "sum"; flt (Dmx_obs.Metrics.histogram_sum h) |];
          [| str name; str "p50"; flt (q 0.5) |];
          [| str name; str "p95"; flt (q 0.95) |];
          [| str name; str "p99"; flt (q 0.99) |] ])
      (Dmx_obs.Metrics.all_histograms ())
  in
  counters @ histograms

let relations_rows ctx =
  List.map
    (fun (desc : Descriptor.t) ->
      let smethod =
        match Registry.storage_method_name desc.smethod_id with
        | name -> name
        | exception Invalid_argument _ -> Fmt.str "#%d" desc.smethod_id
      in
      let attachments =
        Descriptor.attachment_types_present desc
        |> List.map (fun i ->
               match Registry.attachment_name i with
               | name -> name
               | exception Invalid_argument _ -> Fmt.str "#%d" i)
        |> String.concat ","
      in
      (* A sysview's count is its provider's row count: computing it while
         building this very snapshot would recurse, so report -1. *)
      let records =
        if desc.smethod_id = id () then -1
        else
          let (module M : Intf.STORAGE_METHOD) =
            Registry.storage_method desc.smethod_id
          in
          M.record_count ctx desc
      in
      [| Value.int desc.rel_id; str desc.rel_name; str smethod;
         Value.int desc.version; str attachments; Value.int records |])
    (Dmx_catalog.Catalog.relations ctx.Ctx.catalog)

let resource_rel_id = function
  | Lock_table.Relation id | Lock_table.Record (id, _) -> id

let locks_rows ctx =
  let row state (resource, txid, mode) =
    [| Value.int txid; str (Fmt.str "%a" Lock_table.pp_resource resource);
       Value.int (resource_rel_id resource);
       str (Lock_mode.to_string mode); str state |]
  in
  List.concat_map
    (fun (resource, granted, waiting) ->
      List.map (fun (txid, m) -> row "granted" (resource, txid, m)) granted
      @ List.map (fun (txid, m) -> row "waiting" (resource, txid, m)) waiting)
    (Lock_table.dump ctx.Ctx.locks)

let lock_waits_rows ctx =
  List.map
    (fun (waiter, holder) -> [| Value.int waiter; Value.int holder |])
    (Lock_table.all_edges ctx.Ctx.locks)

let txns_rows ctx =
  List.map
    (fun (txn : Txn.t) ->
      let state =
        match txn.state with
        | Txn.Active -> "active"
        | Txn.Committed -> "committed"
        | Txn.Aborted -> "aborted"
      in
      let log_records = List.length txn.chain in
      (* Undoable work still on the chain: what a rollback would undo. *)
      let undo_depth = List.length (Recovery.uncompensated txn.chain) in
      [| Value.int txn.id; str state; Value.int log_records;
         Value.int undo_depth; Value.int (List.length txn.savepoints);
         Value.int (List.length txn.scans);
         Value.int (List.length (Lock_table.locked_resources ctx.Ctx.locks txn.id)) |])
    (List.sort
       (fun (a : Txn.t) (b : Txn.t) -> compare a.id b.id)
       (Txn_mgr.active_txns ctx.Ctx.txn_mgr))

let bufpool_rows ctx =
  List.map
    (fun (page_id, pin_count, dirty, ref_bit, page_lsn) ->
      [| Value.int page_id; Value.int pin_count; bool dirty; bool ref_bit;
         Value.Int page_lsn |])
    (Buffer_pool.frames ctx.Ctx.bp)

let wal_rows ctx =
  let wal = Txn_mgr.wal ctx.Ctx.txn_mgr in
  [ [| Value.Int (Wal.last_lsn wal); Value.Int (Wal.flushed_lsn wal);
       Value.int (Wal.record_count wal);
       Value.int (Wal.pending_records wal);
       Value.int (Wal.pending_bytes wal);
       Value.int (Wal.unsynced_bytes wal);
       Value.Int (Wal.last_checkpoint_lsn wal);
       Value.Int (Wal.base_lsn wal);
       Value.int (Wal.truncations wal);
       Value.int (Wal.truncated_bytes wal);
       Value.int (Buffer_pool.dirty_count ctx.Ctx.bp) |] ]

let profile_rows _ctx =
  List.map
    (fun (r : Dmx_obs.Profile.row) ->
      [| str r.r_name; Value.int r.r_calls; flt r.r_total_us; flt r.r_self_us;
         Value.int r.r_vetoes; Value.int r.r_errors |])
    (Dmx_obs.Profile.report (Dmx_obs.Emit.profile ()))

let events_rows _ctx =
  List.map
    (fun (e : Dmx_obs.Event_ring.entry) ->
      let kind =
        match e.e_kind with
        | Dmx_obs.Event_ring.Span -> "span"
        | Dmx_obs.Event_ring.Event -> "event"
      in
      [| Value.int e.e_seq; flt e.e_ts; str kind; str e.e_name;
         Value.int e.e_txid; flt e.e_us; str e.e_outcome; bool e.e_slow |])
    (Dmx_obs.Event_ring.snapshot (Dmx_obs.Emit.ring ()))

let fp_hex h = str (Dmx_obs.Query_store.hex h)

let statements_rows _ctx =
  List.map
    (fun (e : Dmx_obs.Query_store.entry) ->
      let q = Dmx_obs.Query_store.quantile e in
      let current_plan =
        match e.e_plans with
        | { pu_hash; _ } :: _ -> Dmx_obs.Query_store.hex pu_hash
        | [] -> ""
      in
      [| fp_hex e.e_fp; str e.e_text; Value.int e.e_calls;
         Value.int e.e_errors; Value.int e.e_rows;
         flt (Dmx_obs.Metrics.histogram_sum e.e_latency);
         flt (q 0.5); flt (q 0.95); flt (q 0.99);
         Value.int e.e_pool_hits; Value.int e.e_pool_misses;
         Value.int e.e_page_reads; Value.int e.e_wal_bytes;
         Value.int e.e_lock_conflicts; Value.int e.e_lock_waits;
         Value.int e.e_vetoes; Value.int (List.length e.e_plans);
         str current_plan |])
    (Dmx_obs.Query_store.entries (Dmx_obs.Emit.store ()))

let statement_plans_rows _ctx =
  List.concat_map
    (fun (e : Dmx_obs.Query_store.entry) ->
      List.mapi
        (fun i (u : Dmx_obs.Query_store.plan_use) ->
          [| fp_hex e.e_fp; fp_hex u.pu_hash; flt u.pu_first_seen;
             flt u.pu_last_seen; bool (i = 0) |])
        e.e_plans)
    (Dmx_obs.Query_store.entries (Dmx_obs.Emit.store ()))

let register_builtin_providers () =
  register_provider ~name:"metrics"
    ~schema:
      (cols [ ("name", Value.Tstring); ("kind", Value.Tstring);
              ("value", Value.Tfloat) ])
    metrics_rows;
  register_provider ~name:"relations"
    ~schema:
      (cols [ ("rel_id", Value.Tint); ("name", Value.Tstring);
              ("smethod", Value.Tstring); ("version", Value.Tint);
              ("attachments", Value.Tstring); ("records", Value.Tint) ])
    relations_rows;
  register_provider ~name:"locks"
    ~schema:
      (cols [ ("txid", Value.Tint); ("resource", Value.Tstring);
              ("rel_id", Value.Tint); ("mode", Value.Tstring);
              ("state", Value.Tstring) ])
    locks_rows;
  register_provider ~name:"lock_waits"
    ~schema:(cols [ ("waiter", Value.Tint); ("holder", Value.Tint) ])
    lock_waits_rows;
  register_provider ~name:"txns"
    ~schema:
      (cols [ ("txid", Value.Tint); ("state", Value.Tstring);
              ("log_records", Value.Tint); ("undo_depth", Value.Tint);
              ("savepoints", Value.Tint); ("scans", Value.Tint);
              ("locks", Value.Tint) ])
    txns_rows;
  register_provider ~name:"bufpool"
    ~schema:
      (cols [ ("page_id", Value.Tint); ("pin_count", Value.Tint);
              ("dirty", Value.Tbool); ("ref_bit", Value.Tbool);
              ("page_lsn", Value.Tint) ])
    bufpool_rows;
  register_provider ~name:"wal"
    ~schema:
      (cols [ ("last_lsn", Value.Tint); ("flushed_lsn", Value.Tint);
              ("records", Value.Tint); ("pending_records", Value.Tint);
              ("pending_bytes", Value.Tint); ("unsynced_bytes", Value.Tint);
              ("last_ckpt_lsn", Value.Tint); ("base_lsn", Value.Tint);
              ("truncations", Value.Tint); ("truncated_bytes", Value.Tint);
              ("dirty_pages", Value.Tint) ])
    wal_rows;
  register_provider ~name:"profile"
    ~schema:
      (cols [ ("component", Value.Tstring); ("calls", Value.Tint);
              ("total_us", Value.Tfloat); ("self_us", Value.Tfloat);
              ("vetoes", Value.Tint); ("errors", Value.Tint) ])
    profile_rows;
  register_provider ~name:"events"
    ~schema:
      (cols [ ("seq", Value.Tint); ("ts", Value.Tfloat);
              ("kind", Value.Tstring); ("name", Value.Tstring);
              ("txid", Value.Tint); ("us", Value.Tfloat);
              ("outcome", Value.Tstring); ("slow", Value.Tbool) ])
    events_rows;
  register_provider ~name:"statements"
    ~schema:
      (cols [ ("fingerprint", Value.Tstring); ("statement", Value.Tstring);
              ("calls", Value.Tint); ("errors", Value.Tint);
              ("rows", Value.Tint); ("total_us", Value.Tfloat);
              ("p50_us", Value.Tfloat); ("p95_us", Value.Tfloat);
              ("p99_us", Value.Tfloat); ("pool_hits", Value.Tint);
              ("pool_misses", Value.Tint); ("page_reads", Value.Tint);
              ("wal_bytes", Value.Tint); ("lock_conflicts", Value.Tint);
              ("lock_waits", Value.Tint); ("vetoes", Value.Tint);
              ("plans", Value.Tint); ("plan", Value.Tstring) ])
    statements_rows;
  register_provider ~name:"statement_plans"
    ~schema:
      (cols [ ("fingerprint", Value.Tstring); ("plan_hash", Value.Tstring);
              ("first_seen", Value.Tfloat); ("last_seen", Value.Tfloat);
              ("current", Value.Tbool) ])
    statement_plans_rows

(* ---- the storage method ---- *)

module Impl = struct
  let name = "sysview"
  let attr_specs = [ Attrlist.spec ~required:true "provider" Attrlist.A_string ]

  let create ctx ~rel_id schema attrs =
    ignore ctx;
    ignore rel_id;
    let provider = Option.get (Attrlist.find attrs "provider") in
    match Hashtbl.find_opt providers provider with
    | None ->
      Error (Error.Ddl_error (Fmt.str "sysview: no provider %S" provider))
    | Some p ->
      if not (Schema.equal schema p.p_schema) then
        Error
          (Error.Ddl_error
             (Fmt.str "sysview: schema mismatch for provider %S" provider))
      else Ok provider

  let destroy ctx ~rel_id ~smethod_desc =
    ignore ctx;
    ignore rel_id;
    ignore smethod_desc

  let insert _ctx (desc : Descriptor.t) _record =
    Error (Error.Read_only (Fmt.str "system view %S" desc.rel_name))

  let update _ctx (desc : Descriptor.t) _key _record =
    Error (Error.Read_only (Fmt.str "system view %S" desc.rel_name))

  let delete _ctx (desc : Descriptor.t) _key =
    Error (Error.Read_only (Fmt.str "system view %S" desc.rel_name))

  let fetch ctx (desc : Descriptor.t) key ?fields () =
    match key with
    | Record_key.Fields _ -> None
    | Record_key.Rid { page = 0; slot } -> begin
      (* Positional into a fresh snapshot: stable within one snapshot only. *)
      let rows = snapshot ctx desc in
      if slot < 0 || slot >= Array.length rows then None
      else
        let record = rows.(slot) in
        Some
          (match fields with
          | None -> record
          | Some fs -> Record.project record fs)
    end
    | Record_key.Rid _ -> None

  let key_fields _ = None
  let record_count ctx (desc : Descriptor.t) = Array.length (snapshot ctx desc)

  let scan ctx (desc : Descriptor.t) ?lo ?hi ?filter () =
    ignore lo;
    ignore hi;
    (* Snapshot once at open; the scan then runs over immutable rows, so
       concurrent engine activity (including this very query's own locks and
       pins) cannot shift the iteration out from under the executor. *)
    let rows = snapshot ctx desc in
    let pos = ref (-1) in
    let next () =
      let i = !pos + 1 in
      if i >= Array.length rows then None
      else begin
        pos := i;
        Some (Record_key.rid ~page:0 ~slot:i, rows.(i))
      end
    in
    Scan_help.filtered ?filter ~next
      ~close:(fun () -> ())
      ~capture:(fun () ->
        let saved = !pos in
        fun () -> pos := saved)
      ()

  let estimate_scan ctx (desc : Descriptor.t) ~eligible =
    (* No I/O ever: the snapshot is memory-resident by contract. *)
    let rows = float_of_int (Array.length (snapshot ctx desc)) in
    let sel =
      List.fold_left
        (fun acc p -> acc *. Dmx_expr.Analyze.selectivity p)
        1.0 eligible
    in
    {
      Cost.cost = Cost.make ~io:0. ~cpu:(rows *. 2.);
      est_rows = rows *. sel;
      matched = eligible;
      residual = [];
      ordered_by = None;
    }

  let undo ctx ~rel_id ~data =
    ignore ctx;
    ignore rel_id;
    ignore data

  (* Views are computed from live engine state: nothing is stored. *)
  let redo _ctx ~rel_id:_ ~data:_ = ()
end

include Impl

let register () =
  let id = register ~redo:Impl.redo (module Impl : Intf.STORAGE_METHOD) in
  register_builtin_providers ();
  id
