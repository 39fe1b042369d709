(** Join-index attachment (Valduriez, cited at paper p. 223: "Access paths
    need not be limited to a single table (e.g., join indexes)").

    A join index between relations R and S on R.f = S.g precomputes the set
    of matching (r record key, s record key) pairs in two shared B-trees (one
    per traversal direction). Declared with one DDL call on R (attributes
    [field], [other], [other_field]); a mirror instance is installed on S so
    modifications to either side maintain the pairs — both installations are
    logged, undoable catalog changes. *)

open Dmx_value

include Dmx_core.Intf.ATTACHMENT

val register : unit -> int
val id : unit -> int

val pairs :
  Dmx_core.Ctx.t -> Dmx_catalog.Descriptor.t -> name:string ->
  (Record_key.t * Record_key.t) list
(** All (this-relation key, other-relation key) pairs of the named join index,
    as seen from the relation [desc] (pairs are oriented from it). *)

val find_instance :
  Dmx_catalog.Descriptor.t -> my_field:int -> other_rel:int ->
  other_field:int -> int option
(** Planner support: the instance number of a join index over exactly this
    equi-join, if one exists on the relation. *)

val pairs_of_instance :
  Dmx_core.Ctx.t -> Dmx_catalog.Descriptor.t -> instance:int ->
  (Record_key.t * Record_key.t) list

val pair_count :
  Dmx_core.Ctx.t -> Dmx_catalog.Descriptor.t -> instance:int -> int
