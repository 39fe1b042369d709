(** The crash–recovery torture loop: seeded workload, injected fault,
    simulated power loss, reopen (restart recovery), attachment-consistency
    oracle. Fully deterministic — every failure is replayable from a
    (seed, fault-point) pair. *)

exception Chaos_failure of string
(** An operation's real outcome disagreed with the reference model's
    expectation mid-workload (before any fault fired). *)

type config = {
  seed : int;
  n_txns : int;
  ops_per_txn : int;
  pool_capacity : int;
  recovery_crash_gap : int option;
      (** when set, the recovery run after a crash is itself crashed this
          many page-store ops after reopen — exercising recovery
          idempotence *)
  introspect : bool;
      (** after the oracle, mount the [dmx_*] system views and query
          [dmx_txns]/[dmx_locks] through the standard select path, asserting
          the recovered engine's own accounting shows no leaked transactions
          or lock grants. Mounted after the workload's op counts are
          captured, so fault schedules stay deterministic *)
  checkpoint_every : int;
      (** harness-driven checkpoints: one [Services.checkpoint] every
          this many workload operations, landing mid-transaction so the
          pool is dirty and the active list non-empty (0 = off,
          the default — keeps fault schedules identical to the seed suite) *)
  chaos : Dmx_core.Undo.chaos;
      (** the recovery bug every database of the episode is built with
          ([Services.setup ~chaos]); {!Dmx_core.Undo.no_chaos}, the
          default, outside mutation runs *)
}

val default_config : seed:int -> config

type fault_plan =
  | No_fault
  | Crash_at of int  (** power loss at global page-store op [k] *)
  | Write_error_nth of int  (** the nth page write fails, one-shot *)
  | Sync_error_nth of int  (** the nth sync fails, one-shot *)
  | Torn_write_nth of int  (** the nth write tears mid-page, then power loss *)
  | Truncate_crash_at of int
      (** power loss at the nth log-truncation phase event
          ([Trunc_begin]/[Trunc_rename]/[Trunc_done] across the episode's
          checkpoints) — crashes inside the log rewrite itself *)
  | Crash_after_op of int
      (** power loss right after the nth workload operation — harness-level,
          so the same plan hits the same committed prefix with or without
          checkpoints (the restart-equivalence differential relies on it) *)

val pp_plan : Format.formatter -> fault_plan -> unit

type episode = {
  ep_ops : int;
  ep_writes : int;
  ep_syncs : int;
  ep_fault : string option;
  ep_recovery_crashes : int;
  ep_checkpoints : int;  (** checkpoints the harness drove *)
  ep_trunc_phases : int;
      (** truncation phase events observed — the crash-point domain for
          [Mode_truncate_crash] *)
  ep_redo_applied : int;
      (** winners' records the restart after the fault had to redo
          ([Recovery.redo_applied]); 0 without a fault *)
  ep_failures : string list;  (** [[]] = consistent *)
}

val run_episode : config -> fault_plan -> episode
(** One full workload → fault → recover → oracle cycle in a fresh temp
    directory. Raises {!Chaos_failure} on a mid-workload expectation
    mismatch. *)

val safe_episode : config -> fault_plan -> episode
(** Like {!run_episode} but converts escaped exceptions into failures. *)

type mode =
  | Mode_crash
  | Mode_io_error
  | Mode_torn
  | Mode_ckpt_crash
      (** crash at every page-store op with checkpoints interleaved in the
          workload — a slice of the points land inside the checkpoint's
          page writes and sync, its [Checkpoint] record's flush, and
          truncation *)
  | Mode_truncate_crash
      (** crash at every truncation phase event — power loss mid-rewrite *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

type point_result = { pt_plan : fault_plan; pt_failures : string list }

type seed_report = {
  sr_seed : int;
  sr_mode : mode;
  sr_clean_ops : int;
  sr_points : int;
  sr_redo_applied : int;  (** sum of [ep_redo_applied] over the points *)
  sr_bad : point_result list;
}

val sweep :
  ?progress:(int * int -> unit) -> config -> mode -> recovery_crash:bool ->
  seed_report
(** A clean run sizes the schedule (N ops, W writes, S syncs); then one
    episode per fault point: crash at every op ([Mode_crash]), every write
    and sync error ([Mode_io_error]), or every torn write ([Mode_torn]). *)

val restart_equivalence :
  ?samples:int -> config -> checkpoint_every:int -> string list
(** Crash the same seeded workload at [samples] evenly spaced workload
    positions, once with checkpoints off and once with the given cadence,
    and reopen both. [Crash_after_op] pins both runs to the identical
    committed prefix and the oracle pins each recovered engine to the exact
    committed model state, so an empty result proves checkpointing and
    truncation changed restart cost, not restart outcome. *)

val pp_seed_report : Format.formatter -> seed_report -> unit
val report_json : seed_report list -> string

val undo_mutation : string -> Dmx_core.Undo.chaos
(** Deliberately break undo — the log records of the named attachment type
    (["btree_index"], ["hash_index"]) are skipped during rollback/restart —
    to demonstrate that the oracle catches the resulting ghost index
    entries. *)

val redo_mutation : string -> Dmx_core.Undo.chaos
(** Deliberately break redo — the log records of the named attachment type
    are skipped by restart's redo pass — so a winner's index change the
    store lost at the crash stays lost, which the oracle must catch. *)
