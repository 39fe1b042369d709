exception Invariant_violation of string

let override : bool option ref = ref None [@@dmx.global "config-immutable-after-setup"]

let from_env =
  lazy
    (match Sys.getenv_opt "DMX_SANITIZE" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false) [@@dmx.global "config-immutable-after-setup"]

let enabled () =
  match !override with Some b -> b | None -> Lazy.force from_env

let set_enabled_for_testing b = override := b

let violation fmt =
  Fmt.kstr (fun s -> raise (Invariant_violation ("DMX_SANITIZE: " ^ s))) fmt

let check_pin_balance ~at bp =
  if enabled () then
    match Dmx_page.Buffer_pool.pinned_pages bp with
    | [] -> ()
    | leaks ->
      violation
        "buffer-pool pin leak detected at %s: %a — every pin must be released \
         by the operation that took it"
        at
        Fmt.(list ~sep:comma (fun ppf (page, pins) -> pf ppf "page %d (%d pin%s)" page pins (if pins = 1 then "" else "s")))
        leaks

let check_scan_balance ~at (txn : Dmx_txn.Txn.t) =
  if enabled () then
    match txn.Dmx_txn.Txn.scans with
    | [] -> ()
    | leaks ->
      violation
        "open-scan leak detected at %s: %d scan%s still registered on txn %d \
         — every scan opened during a transaction must be closed by the \
         operation that opened it before commit"
        at (List.length leaks)
        (if List.length leaks = 1 then "" else "s")
        txn.Dmx_txn.Txn.id

let lsn_observer ~source () =
  let last = ref Int64.min_int in
  fun lsn ->
    if enabled () && lsn <= !last then
      violation
        "WAL LSN monotonicity broken in %s: appended LSN %Ld after %Ld — log \
         records must be appended in strictly increasing order"
        source lsn !last;
    last := max !last lsn

let check_span_balance ~at =
  if enabled () && Dmx_obs.Emit.active () then
    match Dmx_obs.Emit.depth () with
    | 0 -> ()
    | n ->
      violation
        "trace-span imbalance detected at %s: %d span%s still open — every \
         span entered during an operation must be exited by transaction end"
        at n
        (if n = 1 then "" else "s")

let check_undo_above_base ~txid ~lsn ~base =
  if enabled () && lsn <= base && base > 0L then
    violation
      "undo for tx%d references LSN %Ld at or below the truncation point %Ld \
       — checkpoint truncation must never drop an active transaction's undo \
       chain"
      txid lsn base

let check_frozen_for_dispatch ~op =
  if enabled () && not (Registry.is_frozen ()) then
    violation
      "relation %s dispatched before Registry.freeze — extensions must be \
       registered and the registry frozen (Services.setup) before any \
       procedure-vector dispatch"
      op

(* ---- lockdep: runtime lock-order checking (DESIGN.md §12) ----

   The dynamic complement of the static R8 pass: every observed grant is
   checked for hierarchy coverage (a record lock needs the relation intent
   lock first), and relation-level acquisition order pairs accumulate in
   the database's order graph. Relation ids are the database's own, so each
   database has its own graph. The first grant that completes a cycle whose
   modes actually conflict in both directions raises — an interleaving of
   the two recorded schedules could deadlock.

   Record-level locks are deliberately excluded from the order graph: which
   record keys collide is data-dependent, which is exactly what the waits-for
   deadlock detector resolves at runtime; flagging key-level orderings here
   would condemn legitimate workloads (e.g. the chaos mix of parent-then-
   child and cascade child-then-parent record writes). *)

module Lockdep = struct
  module Lock_table = Dmx_lock.Lock_table
  module Lock_mode = Dmx_lock.Lock_mode

  type t = {
    (* per-txn held locks, strongest mode per resource *)
    held : (int, (Lock_table.resource * Lock_mode.t) list) Hashtbl.t;
    (* order edges: (relA, relB) -> list of (modeA, modeB): some transaction
       held relA in modeA while being granted relB in modeB *)
    edges : (int * int, (Lock_mode.t * Lock_mode.t) list) Hashtbl.t;
    (* relations created by a still-open transaction: invisible to every
       concurrent transaction, so their lock order cannot invert with
       anyone *)
    nascent : (int * int, unit) Hashtbl.t;
  }

  let create () =
    { held = Hashtbl.create 32; edges = Hashtbl.create 64;
      nascent = Hashtbl.create 8 }

  let mark_nascent t ~txid ~rel_id = Hashtbl.replace t.nascent (txid, rel_id) ()
  let is_nascent t ~txid rel = Hashtbl.mem t.nascent (txid, rel)

  let release t ~txid =
    Hashtbl.remove t.held txid;
    Hashtbl.iter
      (fun ((tx, _) as k) () -> if tx = txid then Hashtbl.remove t.nascent k)
      (Hashtbl.copy t.nascent)

  let check_hierarchy ~txid resource locks =
    match resource with
    | Lock_table.Relation _ -> ()
    | Lock_table.Record (rel, _) ->
      if
        not
          (List.exists
             (fun (r, _) -> r = Lock_table.Relation rel)
             locks)
      then
        violation
          "lockdep: txn %d granted a record lock on relation %d without \
           holding the relation lock — record access must be covered by a \
           relation-level intent lock (db -> relation -> record hierarchy)"
          txid rel

  (* T holds (a, held_a) and is granted (b, want_b). A previously recorded
     edge (b, a) with modes (held_b, want_a) proves some schedule acquired
     the two relations in the opposite order; the pair can deadlock iff each
     transaction's want conflicts with the other's hold. *)
  let check_inversion t ~txid ~a ~held_a ~b ~want_b =
    match Hashtbl.find_opt t.edges (b, a) with
    | None -> ()
    | Some reverse ->
      List.iter
        (fun (held_b, want_a) ->
          if
            (not (Lock_mode.compatible want_a held_a))
            && not (Lock_mode.compatible want_b held_b)
          then
            violation
              "lockdep: txn %d acquires relation %d (%s) while holding \
               relation %d (%s), but the opposite order — hold %d (%s), \
               acquire %d (%s) — was also observed; an interleaving of the \
               two schedules deadlocks"
              txid b
              (Lock_mode.to_string want_b)
              a
              (Lock_mode.to_string held_a)
              b
              (Lock_mode.to_string held_b)
              a
              (Lock_mode.to_string want_a))
        reverse

  let grant t ~txid resource mode =
    if enabled () then begin
      let locks = Option.value ~default:[] (Hashtbl.find_opt t.held txid) in
      check_hierarchy ~txid resource locks;
      let prior = List.assoc_opt resource locks in
      let covered =
        match prior with Some m -> Lock_mode.leq mode m | None -> false
      in
      if not covered then begin
        (match resource with
        | Lock_table.Record _ -> ()
        | Lock_table.Relation b when is_nascent t ~txid b -> ()
        | Lock_table.Relation b ->
          List.iter
            (fun (res, held_a) ->
              match res with
              | Lock_table.Record _ -> ()
              | Lock_table.Relation a ->
                if a <> b && not (is_nascent t ~txid a) then begin
                  check_inversion t ~txid ~a ~held_a ~b ~want_b:mode;
                  let cur =
                    Option.value ~default:[] (Hashtbl.find_opt t.edges (a, b))
                  in
                  if not (List.mem (held_a, mode) cur) then
                    Hashtbl.replace t.edges (a, b) ((held_a, mode) :: cur)
                end)
            locks);
        let mode =
          match prior with Some m -> Lock_mode.sup m mode | None -> mode
        in
        Hashtbl.replace t.held txid
          ((resource, mode) :: List.remove_assoc resource locks)
      end
    end
end

type lockdep = Lockdep.t

let lockdep = Lockdep.create
let lockdep_grant = Lockdep.grant
let lockdep_release ld ~txid = if enabled () then Lockdep.release ld ~txid
let lockdep_key : lockdep Dmx_txn.Tmap.key = Dmx_txn.Tmap.new_key "lockdep"

let install_lockdep txn_mgr =
  let ld = lockdep () in
  Dmx_txn.Txn_mgr.set_attr txn_mgr lockdep_key ld;
  let locks = Dmx_txn.Txn_mgr.locks txn_mgr in
  Dmx_lock.Lock_table.set_grant_observer locks (fun ~txid resource mode ->
      lockdep_grant ld ~txid resource mode);
  Dmx_lock.Lock_table.set_release_observer locks (fun txid ->
      lockdep_release ld ~txid)

let lockdep_mark_nascent txn_mgr ~txid ~rel_id =
  if enabled () then
    Option.iter
      (fun ld -> Lockdep.mark_nascent ld ~txid ~rel_id)
      (Dmx_txn.Txn_mgr.attr txn_mgr lockdep_key)
