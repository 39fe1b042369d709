(** Query translation: eligible predicates to a bound plan.

    Implements the protocol of paper p. 223: the planner hands the conjuncts
    of the query predicate ("eligible predicates") to the relation's storage
    method and to every access-path attachment with instances on the relation;
    each reports relevance and an I/O+CPU estimate; the cheapest access wins
    (access path 0 being the storage method itself). Index accesses are
    charged an additional record fetch per qualifying key, since access paths
    return record keys that are then fetched through the storage method.

    For joins, a matching join-index attachment competes with a nested-loop
    plan whose inner side is planned with the join value as a parameter. *)

val translate :
  Dmx_core.Ctx.t -> Query.t -> (Plan.t, Dmx_core.Error.t) result
