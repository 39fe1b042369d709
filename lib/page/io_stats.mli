(** I/O accounting.

    The cost-estimation protocol (paper p. 223) is expressed in I/O and CPU
    units; benches validate cost estimates against these counters rather than
    against wall-clock alone. These counters are always on (the cost model
    needs them regardless of observability settings); [Services.setup] folds
    them into the [Dmx_obs.Metrics] exposition through a probe so there is a
    single place to read every number. *)

type t = {
  mutable page_reads : int;  (** pages read from the backing store *)
  mutable page_writes : int;  (** pages written to the backing store *)
  mutable page_allocs : int;
  mutable pool_hits : int;  (** pins satisfied from the buffer pool *)
  mutable pool_misses : int;  (** pins that had to read the backing store *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val diff : after:t -> before:t -> t
(** Component-wise [after - before], clamped at 0: a concurrent [reset]
    between the two snapshots must not produce negative I/O counts. *)

val add : t -> t -> t
(** Component-wise sum. *)

val hit_ratio : t -> float option
(** Pool hits over all pins; [None] before any pin. *)

val pp : Format.formatter -> t -> unit
(** Includes the pool hit ratio once at least one pin happened. *)

val to_metrics : ?prefix:string -> t -> (string * int) list
(** The counters as named metrics samples (default prefix ["io."]), the
    shape [Dmx_obs.Metrics.register_probe] expects. *)
