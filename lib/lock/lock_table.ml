type resource =
  | Relation of int
  | Record of int * string

type txid = int

type outcome =
  | Granted
  | Would_block of txid list

type entry = {
  mutable granted : (txid * Lock_mode.t) list;
  mutable waiting : (txid * Lock_mode.t) list;  (* FIFO: oldest first *)
}

type t = {
  table : (resource, entry) Hashtbl.t;
  mutable external_edges : (unit -> (txid * txid) list) list;
  mutable on_grant : (txid:txid -> resource -> Lock_mode.t -> unit) option;
  mutable on_release : (txid -> unit) option;
}

let m_grants = Dmx_obs.Metrics.counter "lock.grants"
let m_conflicts = Dmx_obs.Metrics.counter "lock.conflicts"

(* Conflicts count every incompatible probe; waits count only requests that
   actually joined a wait queue — the number the query store charges to a
   statement as real blocking. *)
let m_waits = Dmx_obs.Metrics.counter "lock.waits"

let create () =
  { table = Hashtbl.create 64;
    external_edges = [];
    on_grant = None;
    on_release = None }

let set_grant_observer t f = t.on_grant <- Some f
let set_release_observer t f = t.on_release <- Some f

(* Kept as explicit matches (not a [notify] helper taking an event value) so
   the disabled path allocates nothing. *)
let notify_grant t ~txid resource mode =
  match t.on_grant with Some f -> f ~txid resource mode | None -> ()

let notify_release t txid =
  match t.on_release with Some f -> f txid | None -> ()

let entry t resource =
  match Hashtbl.find_opt t.table resource with
  | Some e -> e
  | None ->
    let e = { granted = []; waiting = [] } in
    Hashtbl.replace t.table resource e;
    e

let holds t ~txid resource =
  match Hashtbl.find_opt t.table resource with
  | None -> None
  | Some e -> List.assoc_opt txid e.granted

(* The mode actually needed: supremum of held and requested. *)
let needed_mode e ~txid ~mode =
  match List.assoc_opt txid e.granted with
  | None -> mode
  | Some held -> Lock_mode.sup held mode

let blockers e ~txid ~mode =
  List.filter_map
    (fun (other, held) ->
      if other = txid || Lock_mode.compatible mode held then None else Some other)
    e.granted

let grant e ~txid ~mode =
  e.granted <- (txid, mode) :: List.remove_assoc txid e.granted

let try_acquire t ~txid ~mode resource =
  let e = entry t resource in
  let want = needed_mode e ~txid ~mode in
  (* Already covered? *)
  match List.assoc_opt txid e.granted with
  | Some held when Lock_mode.leq want held -> Granted
  | _ -> begin
    match blockers e ~txid ~mode:want with
    | [] ->
      grant e ~txid ~mode:want;
      Granted
    | bs -> Would_block bs
  end

let pp_resource ppf = function
  | Relation id -> Fmt.pf ppf "rel:%d" id
  | Record (id, key) -> Fmt.pf ppf "rec:%d:%d-bytes-key" id (String.length key)

(* Grant/conflict accounting for the no-wait and queueing entry points;
   [try_acquire] itself stays unobserved because the wake path re-runs it
   for requests already counted at submission. *)
let observe_conflict ~txid ~mode resource holders =
  Dmx_obs.Metrics.incr m_conflicts;
  if Dmx_obs.Emit.active () then
    Dmx_obs.Emit.event "lock.conflict" ~txid
      ~attrs:
        [ ("resource", Dmx_obs.Obs_json.Str (Fmt.str "%a" pp_resource resource));
          ("mode", Dmx_obs.Obs_json.Str (Lock_mode.to_string mode));
          ( "holders",
            Dmx_obs.Obs_json.List
              (List.map (fun h -> Dmx_obs.Obs_json.Int h) holders) ) ]

let observe_outcome ~txid ~mode resource = function
  | Granted -> Dmx_obs.Metrics.incr m_grants
  | Would_block holders -> observe_conflict ~txid ~mode resource holders

let acquire_now t ~txid ~mode resource =
  match try_acquire t ~txid ~mode resource with
  | Granted as o ->
    Dmx_obs.Metrics.incr m_grants;
    notify_grant t ~txid resource mode;
    o
  | Would_block holders as o ->
    observe_conflict ~txid ~mode resource holders;
    o

(* Both entry points run as a [lock.acquire] span charged to the lock key;
   with telemetry off that is one branch and no allocation. *)
let lock_span f t ~txid ~mode resource =
  if not (Dmx_obs.Emit.active ()) then f t ~txid ~mode resource
  else begin
    let sp =
      Dmx_obs.Emit.enter "lock.acquire" ~txid ~key:Dmx_obs.Profile.Lock
    in
    let o = f t ~txid ~mode resource in
    Dmx_obs.Emit.exit sp
      ~outcome:(match o with Granted -> "ok" | Would_block _ -> "error");
    o
  end

let acquire t ~txid ~mode resource = lock_span acquire_now t ~txid ~mode resource

let enqueue_now t ~txid ~mode resource =
  let e = entry t resource in
  (* No barging: a request joins the queue behind existing waiters of other
     transactions even when it is compatible with the current holders,
     otherwise a stream of readers starves a waiting writer. *)
  let others_waiting =
    List.exists (fun (tx, _) -> tx <> txid) e.waiting
  in
  let outcome =
    if others_waiting then begin
      if not (List.exists (fun (tx, m) -> tx = txid && m = mode) e.waiting) then
        e.waiting <- e.waiting @ [ (txid, mode) ];
      let want = needed_mode e ~txid ~mode in
      Would_block (blockers e ~txid ~mode:want)
    end
    else
      match try_acquire t ~txid ~mode resource with
      | Granted -> Granted
      | Would_block bs ->
        if not (List.exists (fun (tx, m) -> tx = txid && m = mode) e.waiting)
        then e.waiting <- e.waiting @ [ (txid, mode) ];
        Would_block bs
  in
  (match outcome with
  | Granted -> notify_grant t ~txid resource mode
  | Would_block _ -> Dmx_obs.Metrics.incr m_waits);
  observe_outcome ~txid ~mode resource outcome;
  outcome

let enqueue t ~txid ~mode resource = lock_span enqueue_now t ~txid ~mode resource

let is_granted t ~txid resource =
  match Hashtbl.find_opt t.table resource with
  | None -> false
  | Some e -> List.mem_assoc txid e.granted

(* After releases, grant queued requests in FIFO order while compatible. *)
let wake t resource e =
  let rec loop () =
    match e.waiting with
    | [] -> ()
    | (txid, mode) :: rest ->
      let want = needed_mode e ~txid ~mode in
      if blockers e ~txid ~mode:want = [] then begin
        grant e ~txid ~mode:want;
        notify_grant t ~txid resource want;
        e.waiting <- rest;
        loop ()
      end
  in
  loop ();
  if e.granted = [] && e.waiting = [] then Hashtbl.remove t.table resource

let release_all t txid =
  let touched = ref [] in
  Hashtbl.iter
    (fun resource e ->
      let had = List.mem_assoc txid e.granted || List.exists (fun (tx, _) -> tx = txid) e.waiting in
      if had then begin
        e.granted <- List.remove_assoc txid e.granted;
        e.waiting <- List.filter (fun (tx, _) -> tx <> txid) e.waiting;
        touched := (resource, e) :: !touched
      end)
    t.table;
  notify_release t txid;
  List.iter (fun (resource, e) -> wake t resource e) !touched

let cancel_waits t txid =
  Hashtbl.iter
    (fun _ e -> e.waiting <- List.filter (fun (tx, _) -> tx <> txid) e.waiting)
    t.table

let waits_for_edges t =
  Hashtbl.fold
    (fun _ e acc ->
      (* A waiter waits for incompatible holders, and (FIFO, no barging)
         for incompatible waiters queued ahead of it. *)
      let _, acc =
        List.fold_left
          (fun (ahead, acc) (waiter, mode) ->
            let want = needed_mode e ~txid:waiter ~mode in
            let acc =
              List.fold_left
                (fun acc holder -> (waiter, holder) :: acc)
                acc
                (blockers e ~txid:waiter ~mode:want)
            in
            let acc =
              List.fold_left
                (fun acc (earlier, emode) ->
                  if earlier <> waiter && not (Lock_mode.compatible want emode)
                  then (waiter, earlier) :: acc
                  else acc)
                acc ahead
            in
            ((waiter, mode) :: ahead, acc))
          ([], acc) e.waiting
      in
      acc)
    t.table []

let add_external_edges_hook t f = t.external_edges <- f :: t.external_edges

let all_edges t =
  List.fold_left
    (fun acc f -> f () @ acc)
    (waits_for_edges t) t.external_edges

let dump t =
  Hashtbl.fold
    (fun resource e acc -> (resource, e.granted, e.waiting) :: acc)
    t.table []

let locked_resources t txid =
  Hashtbl.fold
    (fun resource e acc ->
      if List.mem_assoc txid e.granted then resource :: acc else acc)
    t.table []
