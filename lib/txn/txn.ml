type state = Active | Committed | Aborted

type event =
  | Before_prepare
  | On_commit
  | On_abort

type scan_reg = {
  scan_close : unit -> unit;
  scan_capture : unit -> (unit -> unit);
}

type mark = {
  mark_lsn : Dmx_wal.Log_record.lsn;
  mark_restores : (unit -> unit) list;
}

type t = {
  id : int;
  mutable state : state;
  mutable deferred : (event * (unit -> unit)) list;
  mutable scans : (int * scan_reg) list;
  mutable savepoints : (string * mark) list;
  mutable attrs : Tmap.t;
  mutable next_scan_id : int;
  mutable mods : int;
  mutable logged_catalog : bool;
  mutable chain : Dmx_wal.Log_record.t list;
}

let make id =
  {
    id;
    state = Active;
    deferred = [];
    scans = [];
    savepoints = [];
    attrs = Tmap.empty;
    next_scan_id = 0;
    mods = 0;
    logged_catalog = false;
    chain = [];
  }

let is_active t = t.state = Active

let check_active t =
  if not (is_active t) then
    invalid_arg (Fmt.str "transaction %d is not active" t.id)

let defer t event f = t.deferred <- t.deferred @ [ (event, f) ]

let take_deferred t event =
  let mine, rest = List.partition (fun (e, _) -> e = event) t.deferred in
  t.deferred <- rest;
  List.map snd mine

let register_scan t reg =
  let id = t.next_scan_id in
  t.next_scan_id <- id + 1;
  t.scans <- (id, reg) :: t.scans;
  id

let unregister_scan t id = t.scans <- List.remove_assoc id t.scans

let close_all_scans t =
  let scans = t.scans in
  t.scans <- [];
  List.iter (fun (_, reg) -> reg.scan_close ()) scans

let capture_scan_positions t =
  List.map (fun (_, reg) -> reg.scan_capture ()) t.scans

let set_attr t key v = t.attrs <- Tmap.add key v t.attrs
let attr t key = Tmap.find key t.attrs

let pp ppf t =
  Fmt.pf ppf "tx%d(%s)" t.id
    (match t.state with
    | Active -> "active"
    | Committed -> "committed"
    | Aborted -> "aborted")
