(* In-memory reference model: the oracle's source of truth for which rows
   must be present after a crash ("winners") and which must be gone
   ("losers").

   States are immutable maps, so savepoint snapshots and crash restoration
   are O(1) pointer copies and cannot drift from real savepoint semantics. *)

module Imap = Map.Make (Int)
open Chaos_workload

type row = { r_v : int; r_pid : int }

type state = {
  p : row Imap.t; (* parent id -> row *)
  c : row Imap.t; (* child id -> row *)
  pk : Dmx_value.Record_key.t Imap.t; (* parent id -> storage key *)
  ck : Dmx_value.Record_key.t Imap.t; (* child id -> storage key *)
  b : row Imap.t; (* bulk id -> row *)
  bk : Dmx_value.Record_key.t Imap.t; (* bulk id -> storage key *)
}

type t = {
  mutable committed : state option;
      (* None until the schema-creating transaction commits. *)
  mutable cur : state;
  mutable sp_stack : (string * state) list;
}

let empty_state =
  { p = Imap.empty; c = Imap.empty; pk = Imap.empty; ck = Imap.empty;
    b = Imap.empty; bk = Imap.empty }
let create () = { committed = None; cur = empty_state; sp_stack = [] }

type expect = Expect_ok | Expect_err

(* Mirror of the real system's acceptance rules, derived from current state:
   duplicate primary/storage key -> error; child insert/update naming a
   missing parent -> refint veto (NULL pid passes, MATCH SIMPLE); missing row
   on update/delete -> error. *)
let plan_insert st tgt ~id ~pid =
  match tgt with
  | Parent -> if Imap.mem id st.p then Expect_err else Expect_ok
  | Child ->
    if Imap.mem id st.c then Expect_err
    else if pid <> null_pid && not (Imap.mem pid st.p) then Expect_err
    else Expect_ok

let plan_update st tgt ~id ~pid =
  match tgt with
  | Parent -> if Imap.mem id st.p then Expect_ok else Expect_err
  | Child ->
    if not (Imap.mem id st.c) then Expect_err
    else if pid <> null_pid && not (Imap.mem pid st.p) then Expect_err
    else Expect_ok

let plan_delete st tgt ~id =
  match tgt with
  | Parent -> if Imap.mem id st.p then Expect_ok else Expect_err
  | Child -> if Imap.mem id st.c then Expect_ok else Expect_err

let apply_insert st tgt ~id ~pid ~v ~key =
  match tgt with
  | Parent ->
    { st with p = Imap.add id { r_v = v; r_pid = null_pid } st.p;
      pk = Imap.add id key st.pk }
  | Child ->
    { st with c = Imap.add id { r_v = v; r_pid = pid } st.c;
      ck = Imap.add id key st.ck }

let apply_update st tgt ~id ~pid ~v ~key =
  match tgt with
  | Parent ->
    { st with p = Imap.add id { r_v = v; r_pid = null_pid } st.p;
      pk = Imap.add id key st.pk }
  | Child ->
    { st with c = Imap.add id { r_v = v; r_pid = pid } st.c;
      ck = Imap.add id key st.ck }

(* Parent deletes cascade: every child whose pid names the victim goes too
   (NULL pids survive), mirroring refint ON DELETE CASCADE. *)
let apply_delete st tgt ~id =
  match tgt with
  | Parent ->
    let keep _cid row = row.r_pid <> id in
    { st with p = Imap.remove id st.p; pk = Imap.remove id st.pk;
      c = Imap.filter keep st.c;
      ck = Imap.filter (fun cid _ ->
        match Imap.find_opt cid st.c with
        | Some row -> row.r_pid <> id
        | None -> false) st.ck }
  | Child -> { st with c = Imap.remove id st.c; ck = Imap.remove id st.ck }

(* A batch lands whole or not at all (Relation.insert_many is atomic). *)
let apply_insert_many st ~first ~v keys =
  let b = ref st.b and bk = ref st.bk in
  Array.iteri
    (fun i key ->
      b := Imap.add (first + i) { r_v = v; r_pid = null_pid } !b;
      bk := Imap.add (first + i) key !bk)
    keys;
  { st with b = !b; bk = !bk }

let key_of st tgt id =
  match tgt with
  | Parent -> Imap.find_opt id st.pk
  | Child -> Imap.find_opt id st.ck

let begin_txn t = t.sp_stack <- []

let savepoint t name = t.sp_stack <- (name, t.cur) :: t.sp_stack

(* Matches Txn.rollback_to: restores the savepoint state but keeps the
   savepoint live, so a later rollback to the same name is legal. *)
let rollback_to t name =
  match List.assoc_opt name t.sp_stack with
  | Some st -> t.cur <- st
  | None -> ()

let top_savepoint t =
  match t.sp_stack with [] -> None | (name, _) :: _ -> Some name

let commit t =
  t.committed <- Some t.cur;
  t.sp_stack <- []

let rollback_to_committed t =
  t.cur <- (match t.committed with Some st -> st | None -> empty_state);
  t.sp_stack <- []
