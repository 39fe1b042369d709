(** Bound-plan management.

    "It is important to retain the translations of queries into query
    execution plans ... and to use the saved query execution plans whenever
    the queries are subsequently executed ... A uniform mechanism for
    recording the dependencies of execution plans on the relations they use
    allows the system to invalidate any plans which depend upon relations or
    access paths that have been deleted from the system. Invalidated execution
    plans are automatically re-translated, by the common system, the next time
    the query is invoked" (paper pp. 224–225). *)

open Dmx_value

type t

type stats = {
  translations : int;  (** plans compiled (first bind + re-translations) *)
  hits : int;  (** executions that reused a valid bound plan *)
  invalidations : int;  (** stale plans detected and re-translated *)
}

val create : unit -> t

val execute :
  t -> Dmx_core.Ctx.t -> Query.t -> ?params:Value.t array -> unit ->
  (Record.t list, Dmx_core.Error.t) result
(** Bind on first use; on later uses, revalidate dependencies and re-translate
    automatically when a dependency changed or vanished. *)

val explain :
  t -> Dmx_core.Ctx.t -> Query.t -> (string, Dmx_core.Error.t) result
(** Physical plan the next execution would use. *)

val analyze :
  t -> Dmx_core.Ctx.t -> Query.t -> ?params:Value.t array -> unit ->
  (Record.t list * Executor.op_stats, Dmx_core.Error.t) result
(** EXPLAIN ANALYZE through the cache: plan (or reuse) then execute with
    per-operator instrumentation ([Executor.analyze]). *)

val peek : t -> Query.t -> Plan.t option

val entries : t -> (string * Plan.t) list
(** Every cached (query key, bound plan), unordered — the [dmx_plan_cache]
    system-view snapshot. *)

val stats : t -> stats
val reset_stats : t -> unit
