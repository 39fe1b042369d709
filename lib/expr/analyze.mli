(** Eligible-predicate analysis.

    The query planner hands storage methods and access-path attachments a list
    of "eligible predicates"; each extension determines the *relevance* of
    those predicates to itself and estimates the cost of returning qualifying
    records (paper p. 223). This module provides the shared machinery:
    conjunct extraction, search-argument (sarg) recognition, key-prefix
    matching and selectivity heuristics. *)

open Dmx_value

val conjuncts : Expr.t -> Expr.t list
(** Flatten top-level [And]s into a conjunct list. *)

val conjoin : Expr.t list -> Expr.t option
(** Inverse of {!conjuncts}; [None] for the empty list. *)

val const_value : ?params:Value.t array -> Expr.t -> Value.t option
(** Evaluate an expression that references no record fields. [Param]s resolve
    only when [params] is given (execution time); at planning time they are
    treated as opaque-but-bindable. *)

type bound = Incl of Value.t | Excl of Value.t | Unbounded
type range = { lo : bound; hi : bound }

val full_range : range

(** A search argument extracted from one conjunct. *)
type sarg =
  | Eq of int * Expr.t  (** field = value-expression (no field refs on rhs) *)
  | Cmp_range of int * Expr.cmp * Expr.t  (** field <op> value-expression *)
  | Encloses of int array * Expr.t array
      (** [encloses(q0..q3, $f0..$f3)]: query-rectangle expressions and the
          four record fields holding the data rectangle *)

val sarg_of_conjunct : Expr.t -> sarg option
(** Recognise [Field op const-expr] (either orientation), [Between] and the
    spatial [encloses] call. Returns [None] for non-sargable conjuncts. *)

val sargs : Expr.t -> sarg list

type key_match = {
  eq_prefix : int;  (** leading key fields bound by equality *)
  range_on_next : (Expr.cmp * Expr.t) list;
      (** range bounds on key field [eq_prefix], if any *)
  matched : Expr.t list;  (** conjuncts consumed by the match *)
  residual : Expr.t list;  (** conjuncts the caller must still evaluate *)
}

val match_key : key_fields:int array -> Expr.t -> key_match
(** How well a predicate matches a composed key over [key_fields]: the longest
    equality-bound prefix plus any range bounds on the next key field. Used by
    B-tree-style access paths (and key-organised storage methods) to report
    relevance and to derive scan ranges. *)

val key_range :
  ?params:Value.t array -> key_fields:int array -> Expr.t ->
  (Value.t array * range) option
(** Concrete scan bounds from {!match_key} once parameter values are known:
    the equality prefix values and the range on the next field. [None] when
    the predicate gives no bound at all. *)

val key_bounds :
  key_fields:int array -> Expr.t option -> Value.key_bound * Value.key_bound
(** The (lo, hi) bounds over a composed key that a parameter-bound predicate
    gives: the equality prefix extended by the next field's range, or the
    prefix alone at an open end. [(Unbounded, Unbounded)] without a predicate
    or when it bounds no key prefix. *)

val selectivity : Expr.t -> float
(** Heuristic fraction of records satisfying the predicate (System-R style
    magic numbers: 0.05 for equality, 0.3 for ranges, ...). *)
