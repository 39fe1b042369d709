(** Helpers extensions use to build scans.

    [filtered] wraps a raw producer with the common predicate-evaluation
    service so that non-qualifying records are skipped inside the extension,
    while the field values are still in the buffer pool (paper p. 223). The
    filter is tested on each record with {!Dmx_expr.Eval.test}.
    [filtered_batch] and [runs_of_scan] are the run-at-a-time counterparts
    used by the vectorized read path; [records_of_runs] goes the other way,
    so a storage method with a native run producer implements scanning
    once. *)

open Dmx_value

val run_length : unit -> int
(** Records per run for vectorized scans: 256. *)

val set_run_length_for_testing : int option -> unit
(** Override (or, with [None], un-override) {!run_length} — tests only. *)

val filtered :
  ?filter:Dmx_expr.Expr.t ->
  next:(unit -> (Record_key.t * Record.t) option) ->
  close:(unit -> unit) ->
  capture:(unit -> unit -> unit) ->
  unit ->
  Intf.record_scan

val filtered_batch :
  ?filter:Dmx_expr.Expr.t ->
  next_run:(unit -> Intf.record_run option) ->
  close:(unit -> unit) ->
  capture:(unit -> unit -> unit) ->
  unit ->
  Intf.run_scan
(** Wrap a raw run producer with the predicate service. Runs that filter to
    empty are skipped — [rn_next] never yields an empty run. The producer
    must yield a fresh array per run: filtering compacts qualifying records
    in place rather than rebuilding the array. *)

val runs_of_scan : Intf.record_scan -> Intf.run_scan
(** Chunk a record-at-a-time scan into runs of {!run_length} — the default
    behaviour of the [sm_scan_batch] vector slot for storage methods without
    a native batch producer. The underlying scan position after a run is on
    that run's last record, so capture/close delegate directly. *)

val records_of_runs : Ctx.t -> Intf.run_scan -> Intf.record_scan
(** The record cursor over a native run producer, for the storage method's
    [scan]. It buffers one run; [rs_capture] saves the inner position, the
    buffered run and the index into it, so savepoints restore mid-run
    positions exactly. Record-granular visibility is kept: when the calling
    transaction's modification count ({!Dmx_txn.Txn.t.mods}) has moved since
    the run was read, the cursor re-reads from the inner position captured
    just before the run and skips the records at or before the last
    delivered key. The runs must be key-sequential under
    {!Record_key.compare}. *)

val key_scan_of :
  next:(unit -> Record_key.t option) ->
  close:(unit -> unit) ->
  capture:(unit -> unit -> unit) ->
  unit ->
  Intf.key_scan

val record_scan_to_list : Intf.record_scan -> (Record_key.t * Record.t) list
(** Drain and close — convenience for tests and internal bulk reads. *)

val run_scan_to_list : Intf.run_scan -> (Record_key.t * Record.t) list
(** Drain and close a run scan, flattening its runs. *)

val key_scan_to_list : Intf.key_scan -> Record_key.t list
