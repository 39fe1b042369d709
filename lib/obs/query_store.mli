(** The statement aggregator: bounded per-fingerprint cumulative statement
    statistics with plan-change detection.

    Fingerprints are computed by the query layer (this library cannot see
    the parser) and arrive as opaque 64-bit keys; all executions of one
    statement shape share an entry. Each entry accumulates calls, errors,
    rows, a private latency histogram ({!Metrics.unregistered_histogram} —
    per-entry distributions stay out of [dmx_metrics]), buffer-pool and WAL
    deltas, lock pressure, attachment vetoes, and the last few plan hashes
    with first-seen/last-seen stamps.

    {!record} is the single fold over executions. {!Emit} owns the live
    store and feeds it the exec record each closed [stmt.exec] span carries
    ([DMX_OBS=statements] or [Emit.arm `Statements]);
    [Trace_reader.statements] folds the [stmt.exec] spans of a trace file
    through the same function, so the live [dmx_statements] view and
    [dmx_prof --statements] agree by construction. At capacity the
    least-recently-touched entry is evicted and counted; the O(capacity)
    victim scan runs once per {e new} fingerprint, never per execution. *)

type plan_use = {
  pu_hash : int64;
  pu_first_seen : float;
  mutable pu_last_seen : float;
}

type entry = {
  e_fp : int64;
  e_text : string;  (** normalized statement text *)
  mutable e_sample : string;  (** last literal text observed *)
  mutable e_calls : int;
  mutable e_errors : int;
  mutable e_rows : int;
  e_latency : Metrics.histogram;
  mutable e_pool_hits : int;
  mutable e_pool_misses : int;
  mutable e_page_reads : int;
  mutable e_wal_bytes : int;
  mutable e_lock_conflicts : int;
  mutable e_lock_waits : int;
  mutable e_vetoes : int;
  e_first_seen : float;
  mutable e_last_seen : float;
  mutable e_plans : plan_use list;  (** newest first, capped at 4 *)
  mutable e_touch : int;
}

type exec = {
  x_fp : int64;
  x_text : string;
  x_sample : string;
  x_us : float;
  x_rows : int;
  x_error : bool;
  x_pool_hits : int;
  x_pool_misses : int;
  x_page_reads : int;
  x_wal_bytes : int;
  x_lock_conflicts : int;
  x_lock_waits : int;
  x_vetoes : int;
  x_plan : int64 option;
}
(** What one execution observed. On the live path {!Emit} overwrites
    [x_us] with the duration of the [stmt.exec] span that carries it. *)

type plan_note =
  | Plan_none  (** no plan hash supplied (e.g. shell DML) *)
  | Plan_first  (** first plan ever seen for this fingerprint *)
  | Plan_same
  | Plan_changed of int64
      (** previous hash, so the [plan.changed] event can name both *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 128 fingerprints. *)

val capacity : t -> int

val record : t -> exec -> plan_note
(** Fold one execution into the store. *)

val entries : t -> entry list
(** Live entries sorted by fingerprint. The records are the store's own
    (not copies): treat as read-only snapshots for views/shell output. *)

val quantile : entry -> float -> float
(** Latency quantile of an entry ({!Metrics.quantile}); 0 when empty. *)

val hex : int64 -> string
(** The 16-digit lowercase hex form fingerprints and plan hashes take in
    views, trace attributes and reports. *)

val size : t -> int
val evicted : t -> int
val recorded : t -> int

val reset : t -> unit
(** Drop all entries and zero the eviction/recorded totals. *)

val probe : t -> (string * int) list
(** Aggregate health — [stmt.fingerprints]/[stmt.recorded]/[stmt.evicted];
    {!Emit} registers it as the ["query_store"] metrics probe. *)
