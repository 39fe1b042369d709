(** Access-cost estimates.

    "Given a list of 'eligible' predicates supplied by the query planner, the
    storage method or access attachment can determine the 'relevance' of the
    predicates to the access path instance and then estimate the I/O and CPU
    costs to return the record fields or keys that satisfy the predicates"
    (paper p. 223). *)

type t = { io : float; cpu : float }

val zero : t
val make : io:float -> cpu:float -> t
val add : t -> t -> t
val scale : float -> t -> t

val total : t -> float
(** Scalar used for plan comparison; one I/O is worth {!io_weight} CPU
    units. *)

val io_weight : float
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

(** What an access reported back to the planner. *)
type estimate = {
  cost : t;
  est_rows : float;  (** qualifying rows the access will deliver *)
  matched : Dmx_expr.Expr.t list;
      (** eligible conjuncts the access applies itself *)
  residual : Dmx_expr.Expr.t list;
      (** conjuncts the caller must still evaluate *)
  ordered_by : int array option;
      (** record fields ordering the returned stream, if any *)
}
