(** Statement-level observation glue.

    {!observed} brackets one statement execution in a [stmt.exec] span:
    fingerprints the literal text ({!Fingerprint}), snapshots the engine's
    own accounting ([Io_stats], lock conflicts/waits, WAL bytes, attachment
    vetoes) before the body runs, diffs it after, and closes the span
    carrying the totals as its exec record. [Dmx_obs.Emit.exit] folds that
    record into the statement store and emits the [plan.changed] and
    [stmt.slow] events. With no sink armed the wrapper is one load and a
    branch, and allocates nothing. *)

val observed :
  Dmx_core.Ctx.t ->
  text:string ->
  rows:('a -> int) ->
  (set_plan:(int64 -> unit) -> ('a, 'e) result) ->
  ('a, 'e) result
(** Bracket a statement body. [rows] projects the row count out of a
    success; the body may call [set_plan] once the translated plan's hash
    is known ([Plan_cache] does, the shell's DML arms ignore it).
    Exceptions record as errors and re-raise. *)
