(* The statement aggregator: bounded per-fingerprint cumulative statistics.

   Fingerprints are computed upstream (lib/query's [Fingerprint] — this
   library cannot see the parser) and arrive here as opaque int64 keys.
   Each entry accumulates calls/errors/rows, a private latency histogram,
   buffer-pool and WAL deltas, lock pressure and attachment vetoes, plus a
   short history of plan hashes so a plan flip is detectable the moment it
   happens.

   [record] is the one fold over executions: the live store that [Emit]
   feeds from closed [stmt.exec] spans and [Trace_reader.statements]
   rebuilding the same entries from a trace file both go through it.

   Eviction is LRU by a monotonic touch tick; at capacity the victim is
   found by an O(capacity) min-scan. Capacity is a few hundred entries, the
   scan runs once per *new* fingerprint (not per execution), so the cost is
   negligible against parsing + planning a brand-new statement shape. *)

let default_capacity = 128
let max_plan_history = 4

type plan_use = {
  pu_hash : int64;
  pu_first_seen : float;  (* Unix time *)
  mutable pu_last_seen : float;
}

type entry = {
  e_fp : int64;
  e_text : string;  (* normalized statement text *)
  mutable e_sample : string;  (* last literal text observed *)
  mutable e_calls : int;
  mutable e_errors : int;
  mutable e_rows : int;
  e_latency : Metrics.histogram;
  mutable e_pool_hits : int;
  mutable e_pool_misses : int;
  mutable e_page_reads : int;
  mutable e_wal_bytes : int;
  mutable e_lock_conflicts : int;
  mutable e_lock_waits : int;
  mutable e_vetoes : int;
  e_first_seen : float;
  mutable e_last_seen : float;
  mutable e_plans : plan_use list;  (* newest first, capped *)
  mutable e_touch : int;  (* LRU tick *)
}

type exec = {
  x_fp : int64;
  x_text : string;
  x_sample : string;
  x_us : float;
  x_rows : int;
  x_error : bool;
  x_pool_hits : int;
  x_pool_misses : int;
  x_page_reads : int;
  x_wal_bytes : int;
  x_lock_conflicts : int;
  x_lock_waits : int;
  x_vetoes : int;
  x_plan : int64 option;
}

type plan_note =
  | Plan_none
  | Plan_first
  | Plan_same
  | Plan_changed of int64

type t = {
  table : (int64, entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable evicted : int;
  mutable recorded : int;
}

let create ?(capacity = default_capacity) () =
  { table = Hashtbl.create 64; capacity; tick = 0; evicted = 0; recorded = 0 }

let capacity t = t.capacity
let size t = Hashtbl.length t.table
let evicted t = t.evicted
let recorded t = t.recorded

let reset t =
  Hashtbl.reset t.table;
  t.tick <- 0;
  t.evicted <- 0;
  t.recorded <- 0

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with
        | Some best when best.e_touch <= e.e_touch -> acc
        | _ -> Some e)
      t.table None
  in
  match victim with
  | Some e ->
    Hashtbl.remove t.table e.e_fp;
    t.evicted <- t.evicted + 1
  | None -> ()

let fresh_entry t x now =
  if Hashtbl.length t.table >= t.capacity then evict_lru t;
  let e =
    {
      e_fp = x.x_fp;
      e_text = x.x_text;
      e_sample = x.x_sample;
      e_calls = 0;
      e_errors = 0;
      e_rows = 0;
      e_latency = Metrics.unregistered_histogram "stmt.latency_us";
      e_pool_hits = 0;
      e_pool_misses = 0;
      e_page_reads = 0;
      e_wal_bytes = 0;
      e_lock_conflicts = 0;
      e_lock_waits = 0;
      e_vetoes = 0;
      e_first_seen = now;
      e_last_seen = now;
      e_plans = [];
      e_touch = 0;
    }
  in
  Hashtbl.replace t.table x.x_fp e;
  e

let note_plan e hash now =
  match e.e_plans with
  | ({ pu_hash; _ } as cur) :: _ when pu_hash = hash ->
    cur.pu_last_seen <- now;
    Plan_same
  | prev ->
    (* a hash we are not currently on: either brand new or a flip back to
       an older plan — both are worth surfacing as a change *)
    let use =
      match List.find_opt (fun u -> u.pu_hash = hash) prev with
      | Some u ->
        u.pu_last_seen <- now;
        u
      | None -> { pu_hash = hash; pu_first_seen = now; pu_last_seen = now }
    in
    let rest = List.filter (fun u -> u.pu_hash <> hash) prev in
    let rest = List.filteri (fun i _ -> i < max_plan_history - 1) rest in
    e.e_plans <- use :: rest;
    (match prev with
    | [] -> Plan_first
    | { pu_hash = old; _ } :: _ -> Plan_changed old)

let record t x =
  let now = Unix.gettimeofday () in
  let e =
    match Hashtbl.find_opt t.table x.x_fp with
    | Some e -> e
    | None -> fresh_entry t x now
  in
  t.tick <- t.tick + 1;
  e.e_touch <- t.tick;
  t.recorded <- t.recorded + 1;
  e.e_calls <- e.e_calls + 1;
  if x.x_error then e.e_errors <- e.e_errors + 1;
  e.e_rows <- e.e_rows + x.x_rows;
  Metrics.record e.e_latency x.x_us;
  e.e_pool_hits <- e.e_pool_hits + x.x_pool_hits;
  e.e_pool_misses <- e.e_pool_misses + x.x_pool_misses;
  e.e_page_reads <- e.e_page_reads + x.x_page_reads;
  e.e_wal_bytes <- e.e_wal_bytes + x.x_wal_bytes;
  e.e_lock_conflicts <- e.e_lock_conflicts + x.x_lock_conflicts;
  e.e_lock_waits <- e.e_lock_waits + x.x_lock_waits;
  e.e_vetoes <- e.e_vetoes + x.x_vetoes;
  e.e_sample <- x.x_sample;
  e.e_last_seen <- now;
  match x.x_plan with
  | None -> Plan_none
  | Some h -> note_plan e h now

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
  |> List.sort (fun a b -> compare a.e_fp b.e_fp)

let quantile e q =
  Option.value ~default:0. (Metrics.quantile e.e_latency q)

let hex h = Printf.sprintf "%016Lx" h

let probe t =
  [
    ("stmt.fingerprints", size t);
    ("stmt.recorded", t.recorded);
    ("stmt.evicted", t.evicted);
  ]
