(** Seeded, replayable workload scripts: mixed insert/update/delete with
    savepoints and partial rollbacks over a heap parent relation and a
    btree-organised child relation carrying btree/hash/rtree indexes, a
    referential-integrity attachment and an aggregate attachment, plus
    multi-page batch inserts into a bare heap relation. *)

open Dmx_value

type target = Parent | Child

type op =
  | Insert of { tgt : target; id : int; pid : int; v : int }
  | Update of { tgt : target; id : int; pid : int; v : int }
  | Delete of { tgt : target; id : int }
  | Insert_many of { first : int; count : int; v : int }
      (** ids [first, first + count) into the bulk relation, one batch *)
  | Savepoint
  | Rollback

type txn_script = { tx_ops : op list; tx_abort : bool }
type t = { w_seed : int; w_txns : txn_script list }

val generate : seed:int -> n_txns:int -> ops_per_txn:int -> t
(** Same seed, same script — always. *)

val parent_universe : int
val child_universe : int
val amt_universe : int
val dept_count : int
val null_pid : int

val parent_schema : Schema.t
val child_schema : Schema.t
val bulk_schema : Schema.t
val bulk_record : id:int -> v:int -> Record.t
val parent_record : id:int -> v:int -> Record.t
val child_record : id:int -> pid:int -> v:int -> Record.t
val rect_of : id:int -> v:int -> int * int * int * int
val dept_of : int -> string
val salary_of : int -> int
val amt_of : int -> int

val pp_op : Format.formatter -> op -> unit
