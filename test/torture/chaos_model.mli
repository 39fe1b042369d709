(** In-memory reference model of the torture workload: tracks the committed
    and in-flight contents of the parent/child/bulk relations, with O(1) savepoint
    snapshots and crash restoration. The oracle diffs the reopened database
    against [committed]. *)

module Imap : Map.S with type key = int

type row = { r_v : int; r_pid : int }

type state = {
  p : row Imap.t;
  c : row Imap.t;
  pk : Dmx_value.Record_key.t Imap.t;
  ck : Dmx_value.Record_key.t Imap.t;
  b : row Imap.t;
  bk : Dmx_value.Record_key.t Imap.t;
}

type t = {
  mutable committed : state option;
  mutable cur : state;
  mutable sp_stack : (string * state) list;
}

val empty_state : state
val create : unit -> t

type expect = Expect_ok | Expect_err

val plan_insert : state -> Chaos_workload.target -> id:int -> pid:int -> expect
val plan_update : state -> Chaos_workload.target -> id:int -> pid:int -> expect
val plan_delete : state -> Chaos_workload.target -> id:int -> expect

val apply_insert :
  state -> Chaos_workload.target -> id:int -> pid:int -> v:int ->
  key:Dmx_value.Record_key.t -> state

val apply_update :
  state -> Chaos_workload.target -> id:int -> pid:int -> v:int ->
  key:Dmx_value.Record_key.t -> state

val apply_delete : state -> Chaos_workload.target -> id:int -> state

val apply_insert_many :
  state -> first:int -> v:int -> Dmx_value.Record_key.t array -> state
(** One [Insert_many] batch: ids [first ..] receive the keys in order. *)

val key_of :
  state -> Chaos_workload.target -> int -> Dmx_value.Record_key.t option

val begin_txn : t -> unit
val savepoint : t -> string -> unit
val rollback_to : t -> string -> unit
val top_savepoint : t -> string option
val commit : t -> unit
val rollback_to_committed : t -> unit
