(* Statement-level observation: bracket one execution in a [stmt.exec] span
   and attach the engine's own accounting for it as the span's exec record.

   The statement aggregator lives in lib/obs and cannot see the parser, the
   context or the buffer pool — this module is the glue that can: it
   fingerprints the text, snapshots [Io_stats] and the relevant counters
   before the body runs, and diffs them after. [Emit.exit] folds the record
   into the store and raises the plan.changed / stmt.slow events.

   Everything is off unless some sink is armed; the inactive path of
   [observed] is one load and a branch, and allocates nothing. *)

module Obs = Dmx_obs
module Ctx = Dmx_core.Ctx

(* Counter handles resolved once; find-or-create by name yields the same
   records lock_table/wal/relation increment. *)
let m_conflicts = Obs.Metrics.counter "lock.conflicts"
let m_waits = Obs.Metrics.counter "lock.waits"
let m_wal_bytes = Obs.Metrics.counter "wal.appended_bytes"
let m_vetoes = Obs.Metrics.counter "dispatch.vetoes"

let ignore_plan (_ : int64) = ()

let observed ctx ~text ~rows f =
  if not (Obs.Emit.active ()) then f ~set_plan:ignore_plan
  else begin
    let norm = Fingerprint.normalize text in
    let fp = Fingerprint.hash norm in
    let span =
      Obs.Emit.enter "stmt.exec" ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id
        ~attrs:
          [ ("fp", Obs.Obs_json.Str (Fingerprint.hex fp));
            ("text", Obs.Obs_json.Str norm) ]
    in
    let io = Dmx_page.Disk.stats (Dmx_page.Buffer_pool.disk ctx.Ctx.bp) in
    let io0 = Dmx_page.Io_stats.copy io in
    let conflicts0 = Obs.Metrics.value m_conflicts in
    let waits0 = Obs.Metrics.value m_waits in
    let wal0 = Obs.Metrics.value m_wal_bytes in
    let vetoes0 = Obs.Metrics.value m_vetoes in
    let plan = ref None in
    let set_plan h = plan := Some h in
    let finish ~rows ~error =
      let d = Dmx_page.Io_stats.diff ~after:io ~before:io0 in
      Obs.Emit.exit span
        ~outcome:(if error then "error" else "ok")
        ~attrs:
          [ ("rows", Obs.Obs_json.Int rows);
            ("plan", Obs.Obs_json.Str (Option.fold ~none:"" ~some:Fingerprint.hex !plan)) ]
        ~exec:
          {
            Obs.Query_store.x_fp = fp;
            x_text = norm;
            x_sample = text;
            x_us = 0.;
            x_rows = rows;
            x_error = error;
            x_pool_hits = d.Dmx_page.Io_stats.pool_hits;
            x_pool_misses = d.Dmx_page.Io_stats.pool_misses;
            x_page_reads = d.Dmx_page.Io_stats.page_reads;
            x_wal_bytes = Obs.Metrics.value m_wal_bytes - wal0;
            x_lock_conflicts = Obs.Metrics.value m_conflicts - conflicts0;
            x_lock_waits = Obs.Metrics.value m_waits - waits0;
            x_vetoes = Obs.Metrics.value m_vetoes - vetoes0;
            x_plan = !plan;
          }
    in
    match f ~set_plan with
    | Ok v as r ->
      finish ~rows:(rows v) ~error:false;
      r
    | Error _ as r ->
      finish ~rows:0 ~error:true;
      r
    | exception e ->
      finish ~rows:0 ~error:true;
      raise e
  end
