(** The event-ring sink: a fixed-size in-memory ring of closed spans and
    instant events.

    The ring keeps the last [capacity] records emitted through {!Emit} so
    the engine can answer "what just happened" without a trace file: the
    [dmx_events] system view snapshots it, and the shell can watch it live.
    Storage is a preallocated circular buffer — once full, the oldest entry
    is overwritten (see {!dropped} for how many were lost). Entries whose
    duration reaches the slow threshold are tagged slow.

    This module is the data structure only; {!Emit} owns the one live ring
    and decides when it records ([DMX_OBS=events] or [Emit.arm `Events]). *)

type kind = Span | Event

type entry = {
  e_seq : int;  (** monotonically increasing record number, from 1 *)
  e_ts : float;  (** wall-clock seconds at record time *)
  e_kind : kind;
  e_name : string;
  e_txid : int;
  e_us : float;  (** span duration; 0 for instant events *)
  e_outcome : string;  (** ["ok"] / ["veto"] / ["error"] / ["exn"]; [""] for events *)
  e_slow : bool;  (** [e_us >= slow threshold] *)
}

type t

val create : unit -> t
(** 512 entries, slow threshold 10000 us. *)

val capacity : t -> int

val set_capacity : t -> int -> unit
(** Resize the ring; clears all entries. Values below 1 are clamped to 1. *)

val slow_us : t -> float

val set_slow_us : t -> float -> unit
(** Threshold in microseconds; spans at least this long are tagged slow.
    [0.] disables tagging. *)

val is_slow : t -> float -> bool

val record :
  t -> kind:kind -> name:string -> txid:int -> us:float -> outcome:string ->
  unit
(** Append one entry, overwriting the oldest when full. *)

val snapshot : t -> entry list
(** Current contents, oldest first. Allocates a fresh list — safe to consume
    while recording continues. *)

val total : t -> int
(** Entries ever recorded since creation (or {!reset}). *)

val dropped : t -> int
(** Entries lost to overwriting: [total - length (snapshot)]. *)

val reset : t -> unit
(** Clear entries and counters; keeps capacity and threshold. *)
