type frame = {
  page_id : int;
  data : bytes;
  mutable dirty : bool;
  mutable pin_count : int;
  mutable page_lsn : int64;
  mutable ref_bit : bool;
}

(* Second-chance clock over a fixed frame array. The slot table is only the
   page-id → slot index; replacement state lives in the frames themselves
   ([ref_bit]) and the hand, so eviction is O(1) amortized instead of the
   former O(frames) least-recently-used fold over the whole table. *)
type t = {
  disk : Disk.t;
  cap : int;
  slots : (int, int) Hashtbl.t;  (* page_id -> index into [arr] *)
  arr : frame option array;
  mutable free : int list;  (* unoccupied slots (cold pool, after drop) *)
  mutable used : int;
  mutable hand : int;
  mutable flush_hook : int64 -> unit;
  mutable log_end : unit -> int64;
}

let m_evictions = Dmx_obs.Metrics.counter "bp.evictions"
let m_clock_steps = Dmx_obs.Metrics.counter "bp.clock_steps"

let create ?(capacity = 256) disk =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity < 1";
  {
    disk;
    cap = capacity;
    slots = Hashtbl.create capacity;
    arr = Array.make capacity None;
    free = List.init capacity Fun.id;
    used = 0;
    hand = 0;
    flush_hook = ignore;
    log_end = (fun () -> 0L);
  }

let disk t = t.disk

(* A loser's logged effect can name a page allocated after the last sync
   that no catalog snapshot listed; restart does not bring such a page back,
   so it vanished with the crash. Redo and undo entry points probe here
   before pinning. *)
let page_live t id = id >= 1 && id <= Disk.page_count t.disk
let capacity t = t.cap
let set_flush_hook t hook = t.flush_hook <- hook
let set_log_end t f = t.log_end <- f

(* Every extension logs a change before it writes it, so the log's end when
   a frame is unpinned dirty covers everything the frame holds. *)
let stamp t frame =
  let lsn = t.log_end () in
  if lsn > frame.page_lsn then frame.page_lsn <- lsn

let write_back t frame =
  if frame.dirty then begin
    t.flush_hook frame.page_lsn;
    Disk.write t.disk frame.page_id frame.data;
    frame.dirty <- false
  end

(* One clock sweep step per call site: skip pinned frames, give a set
   reference bit its second chance, take the first unpinned frame whose bit
   is already clear. After two full revolutions every unpinned frame has had
   its bit cleared and been revisited, so coming up empty means every frame
   is pinned. [bp.clock_steps] counts the frames the hand passes, the
   eviction's whole cost apart from the write-back. *)
let evict_slot t =
  let rec sweep steps =
    if steps > 2 * t.cap then failwith "Buffer_pool: all frames pinned"
    else begin
      let i = t.hand in
      t.hand <- (t.hand + 1) mod t.cap;
      match t.arr.(i) with
      | Some f when f.pin_count = 0 ->
        if f.ref_bit then begin
          f.ref_bit <- false;
          sweep (steps + 1)
        end
        else begin
          Dmx_obs.Metrics.add m_clock_steps (steps + 1);
          i
        end
      | Some _ | None -> sweep (steps + 1)
    end
  in
  let i = sweep 0 in
  let f = match t.arr.(i) with Some f -> f | None -> assert false in
  Dmx_obs.Metrics.incr m_evictions;
  if Dmx_obs.Emit.active () then
    Dmx_obs.Emit.event "bp.evict"
      ~attrs:
        [ ("page", Dmx_obs.Obs_json.Int f.page_id);
          ("dirty", Dmx_obs.Obs_json.Bool f.dirty) ];
  write_back t f;
  Hashtbl.remove t.slots f.page_id;
  t.arr.(i) <- None;
  t.used <- t.used - 1;
  i

let take_slot t =
  match t.free with
  | i :: rest ->
    t.free <- rest;
    i
  | [] -> evict_slot t

let install t page_id data =
  let i = take_slot t in
  let frame =
    { page_id; data; dirty = false; pin_count = 1; page_lsn = 0L; ref_bit = true }
  in
  t.arr.(i) <- Some frame;
  Hashtbl.replace t.slots page_id i;
  t.used <- t.used + 1;
  frame

(* A miss: [fill] reads the page from the store, and installs it unless a
   sequential reader keeps it ([cached] false). The fill, plus any eviction
   write-back it forces, is charged to the caller's transaction, falling
   back to the enclosing span's. *)
let miss ~txid ~cached t page_id fill =
  (Disk.stats t.disk).pool_misses <- (Disk.stats t.disk).pool_misses + 1;
  if not (Dmx_obs.Emit.active ()) then fill ()
  else begin
    let page = ("page", Dmx_obs.Obs_json.Int page_id) in
    let sp =
      Dmx_obs.Emit.enter "bp.miss" ~txid ~key:Dmx_obs.Profile.Bp
        ~attrs:
          (if cached then [ page ]
           else [ page; ("cached", Dmx_obs.Obs_json.Bool false) ])
    in
    match fill () with
    | v ->
      Dmx_obs.Emit.exit sp;
      v
    | exception e ->
      Dmx_obs.Emit.exit ~outcome:"exn" sp;
      raise e
  end

let pin ?(txid = -1) t page_id =
  match Hashtbl.find_opt t.slots page_id with
  | Some i ->
    let frame = match t.arr.(i) with Some f -> f | None -> assert false in
    (Disk.stats t.disk).pool_hits <- (Disk.stats t.disk).pool_hits + 1;
    frame.pin_count <- frame.pin_count + 1;
    frame.ref_bit <- true;
    frame
  | None ->
    miss ~txid ~cached:true t page_id (fun () ->
        install t page_id (Disk.read t.disk page_id))

let unpin ?(dirty = false) ?lsn t frame =
  if frame.pin_count <= 0 then failwith "Buffer_pool.unpin: frame not pinned";
  if dirty then begin
    frame.dirty <- true;
    stamp t frame
  end;
  (match lsn with
  | Some l when l > frame.page_lsn -> frame.page_lsn <- l
  | _ -> ());
  frame.pin_count <- frame.pin_count - 1

let alloc t =
  let page_id = Disk.alloc t.disk in
  let frame = install t page_id (Bytes.make (Disk.page_size t.disk) '\000') in
  frame.dirty <- true;
  stamp t frame;
  frame

let with_page t page_id f =
  let frame = pin t page_id in
  Fun.protect ~finally:(fun () -> unpin t frame) (fun () -> f frame)

(* A scan that lists more pages than the pool holds would evict every frame
   and still find none of its pages on the next pass, so its misses go to
   one buffer of its own instead of a frame. A resident page may be newer
   than the store, so it is always read in its frame. *)
type reader = {
  pool : t;
  txid : int;
  own : bytes option;  (* the scan's buffer; [None]: misses install *)
  poison : bool;
}

let scan_reader ?(txid = -1) ?(poison = false) t ~pages =
  let own =
    if pages > t.cap then Some (Bytes.create (Disk.page_size t.disk)) else None
  in
  { pool = t; txid; own; poison }

let poison_byte = '\xdb'

let with_scan_page r page_id f =
  let t = r.pool in
  match r.own with
  | Some buf when not (Hashtbl.mem t.slots page_id) ->
    miss ~txid:r.txid ~cached:false t page_id (fun () ->
        Disk.read_into t.disk page_id buf);
    if not r.poison then f buf
    else
      Fun.protect
        ~finally:(fun () -> Bytes.fill buf 0 (Bytes.length buf) poison_byte)
        (fun () -> f buf)
  | Some _ | None ->
    let frame = pin ~txid:r.txid t page_id in
    Fun.protect ~finally:(fun () -> unpin t frame) (fun () -> f frame.data)

let with_page_mut t page_id f =
  let frame = pin t page_id in
  Fun.protect ~finally:(fun () -> unpin ~dirty:true t frame) (fun () -> f frame)

let flush_page t page_id =
  match Hashtbl.find_opt t.slots page_id with
  | None -> ()
  | Some i -> (match t.arr.(i) with Some f -> write_back t f | None -> ())

(* The sync runs even when no frame is dirty: evictions and [flush_page]
   write without one, and a checkpoint lets the log go only once those
   writes are durable too. *)
let flush_all t =
  (* Ascending page-id order: the force step becomes one sequential pass over
     the backing store instead of hashtable order. *)
  let dirty =
    Array.fold_left
      (fun acc slot ->
        match slot with Some f when f.dirty -> f :: acc | _ -> acc)
      [] t.arr
  in
  List.iter (write_back t)
    (List.sort (fun a b -> compare a.page_id b.page_id) dirty);
  Disk.sync t.disk;
  List.length dirty

let dirty_count t =
  Array.fold_left
    (fun acc slot ->
      match slot with Some f when f.dirty -> acc + 1 | _ -> acc)
    0 t.arr

let drop_cache t =
  Array.iter
    (function
      | Some f when f.pin_count > 0 ->
        failwith
          (Fmt.str "Buffer_pool.drop_cache: page %d still pinned" f.page_id)
      | _ -> ())
    t.arr;
  Hashtbl.reset t.slots;
  Array.fill t.arr 0 t.cap None;
  t.free <- List.init t.cap Fun.id;
  t.used <- 0;
  t.hand <- 0

let cached_page_ids t =
  Array.fold_left
    (fun acc slot -> match slot with Some f -> f.page_id :: acc | None -> acc)
    [] t.arr
  |> List.sort compare

let frames t =
  Array.fold_left
    (fun acc slot ->
      match slot with
      | Some f -> (f.page_id, f.pin_count, f.dirty, f.ref_bit, f.page_lsn) :: acc
      | None -> acc)
    [] t.arr
  |> List.sort compare

let pinned_pages t =
  Array.fold_left
    (fun acc slot ->
      match slot with
      | Some f when f.pin_count > 0 -> (f.page_id, f.pin_count) :: acc
      | _ -> acc)
    [] t.arr
  |> List.sort compare
