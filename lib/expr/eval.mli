(** Expression evaluation with SQL three-valued logic.

    The common-services predicate evaluator. Storage methods and access paths
    call {!test} on the current record while its field values are still in the
    buffer pool; integrity constraint attachments and the query execution
    engine share the same facility (paper p. 223–224). *)

open Dmx_value

exception Error of string

type truth = True | False | Unknown

val eval : ?params:Value.t array -> Record.t -> Expr.t -> Value.t
(** Evaluate a scalar expression against a record. NULL propagates through
    comparisons, arithmetic and (by default) function calls. Raises {!Error}
    on type mismatches or unknown functions. *)

val truth : ?params:Value.t array -> Record.t -> Expr.t -> truth
(** Evaluate a predicate under three-valued logic. *)

val test : ?params:Value.t array -> Record.t -> Expr.t -> bool
(** [test r p] is [true] iff [truth r p = True] — the filtering rule: a record
    qualifies only when the predicate is definitely true. *)

val compile_span :
  Schema.t -> Expr.t -> (string -> pos:int -> len:int -> bool option) option
(** [compile_span schema p] specializes the scan-filter shape — a conjunction
    of [field <op> constant] comparisons whose constant types equal the
    fields' declared types — into a matcher over an encoded record payload
    ([Codec.Enc.record] format) at [s.[pos .. pos+len-1]]: unread fields are
    skipped in the encoding, read fields are compared in place. Returns
    [None] when [p] is not of that shape. The matcher returns [Some keep]
    with the same verdict [test r p] gives on the decoded record [r], or
    [None] when the payload deviates from the schema (width drift,
    unexpected tag) — the caller must then materialize the record and
    evaluate [p] on it. Vectorized scans use this while the payload is still
    in the pinned page image. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE matching with [%] (any run) and [_] (any one char), in
    O(|pattern| * |s|) time. *)

val pp_truth : Format.formatter -> truth -> unit
