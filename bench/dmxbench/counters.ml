(* Before/after counter snapshots over one database handle.

   Counts come from per-database objects (the page store's [Io_stats], the
   WAL, the handle's plan cache) and from native [Metrics] counters. Every
   count is a snapshot difference: nothing is ever reset, and the
   probe-backed names (the io, plan_cache, query_store and dispatch
   families) are never read, because probes mirror state that outlives a
   measurement. A negative delta aborts the run. *)

module Db = Dmx_db.Db
module Metrics = Dmx_obs.Metrics

let native =
  [ "txn.commits"; "txn.aborts"; "txn.undo_records"; "wal.appends";
    "wal.fsyncs"; "lock.grants"; "lock.waits"; "bp.evictions";
    "ckpt.checkpoints"; "ckpt.pages_written" ]

type t = (string * int) list

let snapshot (db : Db.t) : t =
  let io = Dmx_core.Services.io_stats db.services in
  let pc = Dmx_query.Plan_cache.stats db.cache in
  List.map (fun n -> (n, Metrics.value (Metrics.counter n))) native
  @ [ ("page.reads", io.page_reads);
      ("page.writes", io.page_writes);
      ("page.allocs", io.page_allocs);
      ("bp.hits", io.pool_hits);
      ("bp.misses", io.pool_misses);
      ("wal.bytes", Dmx_wal.Wal.appended_bytes db.services.wal);
      ("plan.translations", pc.translations);
      ("plan.hits", pc.hits) ]

let diff ~(before : t) ~(after : t) : t =
  List.map2
    (fun (name, a) (name', b) ->
      if name <> name' then Util.fail "counters: snapshots disagree on %s" name;
      if b < a then Util.fail "counters: %s went backwards (%d -> %d)" name a b;
      (name, b - a))
    before after

let get (t : t) name =
  match List.assoc_opt name t with
  | Some v -> v
  | None -> Util.fail "counters: no %s" name

(* The WAL flush-latency histogram, as bucket counts. *)
let flush_hist () = Metrics.histogram "wal.flush_us"
let flush_counts () = Metrics.histogram_counts (flush_hist ())

(* Median of the flushes between two bucket-count snapshots, interpolated
   inside the covering bucket the way [Metrics.quantile] does. *)
let flush_p50 ~before ~after =
  let bounds = Metrics.histogram_buckets (flush_hist ()) in
  let d =
    Array.mapi
      (fun i a ->
        let v = a - before.(i) in
        if v < 0 then Util.fail "counters: wal.flush_us bucket %d went backwards" i;
        v)
      after
  in
  let total = Array.fold_left ( + ) 0 d in
  if total = 0 then 0.
  else begin
    let target = 0.5 *. float_of_int total in
    let n = Array.length bounds in
    let rec find i cum =
      if i >= n then bounds.(n - 1)
      else
        let cum' = cum + d.(i) in
        if float_of_int cum' >= target && d.(i) > 0 then
          let lo = if i = 0 then 0. else bounds.(i - 1) in
          lo
          +. (bounds.(i) -. lo)
             *. Float.max 0. ((target -. float_of_int cum) /. float_of_int d.(i))
        else find (i + 1) cum'
    in
    find 0 0
  end
