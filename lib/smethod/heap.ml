open Dmx_value
open Dmx_page
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog
module Log_record = Dmx_wal.Log_record

include Registry.Smethod (struct
  let name = "heap"
end)

(* ---- page helpers ---- *)

(* Pins name the transaction explicitly so a page fill (and any eviction
   write-back it forces) is attributed to it even when no profile frame is
   open — e.g. during scan stepping. *)
let with_page ctx page f =
  let frame =
    Buffer_pool.pin ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id ctx.Ctx.bp page
  in
  Fun.protect
    ~finally:(fun () -> Buffer_pool.unpin ctx.Ctx.bp frame)
    (fun () -> f frame.Buffer_pool.data)

let with_page_mut ctx page f =
  let frame =
    Buffer_pool.pin ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id ctx.Ctx.bp page
  in
  Fun.protect
    ~finally:(fun () -> Buffer_pool.unpin ~dirty:true ctx.Ctx.bp frame)
    (fun () -> f frame.Buffer_pool.data)

(* [f] says whether it changed the page; the page is marked dirty only
   then. *)
let with_page_if ctx page f =
  let frame =
    Buffer_pool.pin ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id ctx.Ctx.bp page
  in
  let changed = ref false in
  Fun.protect
    ~finally:(fun () -> Buffer_pool.unpin ~dirty:!changed ctx.Ctx.bp frame)
    (fun () ->
      changed := f frame.Buffer_pool.data;
      !changed)

(* ---- descriptor: the directory's head page ---- *)

let enc_desc head =
  let e = Codec.Enc.create ~size:8 () in
  Codec.Enc.varint e head;
  Codec.Enc.to_string e

let head_of (desc : Descriptor.t) =
  Codec.Dec.varint (Codec.Dec.of_string desc.smethod_desc)

(* ---- directory pages ---- *)

(* The relation's data pages are listed, in the order they were added, by a
   chain of directory pages from the head. A directory page holds its next
   and previous links and its entry count, then one 4-byte page id per
   entry. The head also holds the chain's tail (0: the head itself) and the
   relation's advisory record count. A zeroed page is an empty directory,
   so a fresh head or link needs no format. *)
let off_next = 0
let off_prev = 4
let off_len = 8
let off_tail = 12
let off_count = 16
let dir_header = 24

let get data off = Int32.to_int (Bytes.get_int32_le data off)
let put data off v = Bytes.set_int32_le data off (Int32.of_int v)
let entry i = dir_header + (4 * i)
let dir_capacity data = (Bytes.length data - dir_header) / 4

let tail_of ctx head =
  with_page ctx head (fun d -> match get d off_tail with 0 -> head | t -> t)

let rec page_total ctx dir acc =
  if dir = 0 then acc
  else
    let next, n = with_page ctx dir (fun d -> (get d off_next, get d off_len)) in
    page_total ctx next (acc + n)

(* Every data page, oldest first, each directory page pinned once. *)
let data_pages ctx head =
  let rec walk dir acc =
    if dir = 0 then Array.concat (List.rev acc)
    else
      let next, ids =
        with_page ctx dir (fun d ->
            (get d off_next, Array.init (get d off_len) (fun i -> get d (entry i))))
      in
      walk next (ids :: acc)
  in
  walk head []

(* The directory's own pages, head first. *)
let directory ctx head =
  let rec walk dir acc =
    if dir = 0 then List.rev acc
    else walk (with_page ctx dir (fun d -> get d off_next)) (dir :: acc)
  in
  walk head []

(* The newest data page [accept] takes, searching back from the chain's
   tail, each directory page under one pin; a directory of one page is
   searched under the pin that reads the tail. A step returns a page id
   (> 0) found, or minus the directory page to search next (0: none). *)
let find_back ctx head accept =
  let search data =
    let rec back i =
      if i < 0 then -get data off_prev
      else
        let p = get data (entry i) in
        if accept p then p else back (i - 1)
    in
    back (get data off_len - 1)
  in
  let rec from r =
    if r > 0 then Some r
    else if r = 0 then None
    else from (with_page ctx (-r) search)
  in
  from
    (with_page ctx head (fun data ->
         match get data off_tail with 0 -> search data | tail -> -tail))

(* ---- advisory record count ---- *)

(* On the head page, unlogged: exact within a process (inserts, deletes and
   the undos that reverse them adjust it), advisory across a crash, where
   it is whatever the head held when it was last written. *)
let count_of ctx head =
  with_page ctx head (fun d -> Int64.to_int (Bytes.get_int64_le d off_count))

let add_count ctx head delta =
  with_page_mut ctx head (fun d ->
      let n = Int64.to_int (Bytes.get_int64_le d off_count) in
      Bytes.set_int64_le d off_count (Int64.of_int (max 0 (n + delta))))

(* ---- directory records ---- *)

(* Logged under the heap's source beside its slot images, tagged with a
   first byte above the image flags ({!Image.encode}). [Append] makes entry
   [index] of directory page [dir] name [page]; [Link] chains the fresh
   directory page [page] after [from] and makes it the head's tail. Neither
   is undone: a page a rolled-back transaction added stays listed, empty,
   for later inserts. Redo checks the state, so it can repeat. *)
type dir_op =
  | Append of { dir : int; index : int; page : int }
  | Link of { head : int; from : int; page : int }

let enc_dir_op op =
  let e = Codec.Enc.create ~size:16 () in
  (match op with
  | Append { dir; index; page } ->
    Codec.Enc.byte e 4;
    Codec.Enc.varint e dir;
    Codec.Enc.varint e index;
    Codec.Enc.varint e page
  | Link { head; from; page } ->
    Codec.Enc.byte e 5;
    Codec.Enc.varint e head;
    Codec.Enc.varint e from;
    Codec.Enc.varint e page);
  Codec.Enc.to_string e

let dec_dir_op data =
  let d = Codec.Dec.of_string data in
  let tag = Codec.Dec.byte d in
  let a = Codec.Dec.varint d in
  let b = Codec.Dec.varint d in
  let page = Codec.Dec.varint d in
  if tag = 4 then Append { dir = a; index = b; page }
  else Link { head = a; from = b; page }

let is_dir_op data = String.length data > 0 && Char.code data.[0] >= 4

(* The highest page a heap record names: only directory records name pages
   that may postdate the store's last sync, and a slot image's page was
   named by the append logged before it. *)
let page_bound data =
  if not (is_dir_op data) then 0
  else
    match dec_dir_op data with
    | Append { dir; page; _ } -> max dir page
    | Link { head; from; page } -> max head (max from page)

(* Make the pages hold [op]; whether that changed anything. An entry that
   names another page is written again: a torn directory page, or an
   append whose write an exception cut short before a later one reused
   its entry, leaves no other state to keep. *)
let apply_dir_op ctx op =
  let set page off v =
    with_page_if ctx page (fun d ->
        get d off <> v
        && begin
             put d off v;
             true
           end)
  in
  match op with
  | Append { dir; index; page } ->
    with_page_if ctx dir (fun d ->
        if get d off_len > index && get d (entry index) = page then false
        else begin
          put d (entry index) page;
          put d off_len (max (get d off_len) (index + 1));
          true
        end)
  | Link { head; from; page } ->
    let a = set from off_next page in
    let b = set page off_prev from in
    set head off_tail page || a || b

(* ---- bytes held for undo ---- *)

(* The bytes a transaction's delete or in-place shrink frees on a page stay
   its own until it ends: its undo puts the record back in the same slot,
   so no other transaction may take them meanwhile. Each transaction counts
   what it holds per page under its extension state, which ends with it.
   Every write to a slot, forward or undo, adjusts the count by the bytes
   it freed (negative when it took bytes), floored at zero: the count is
   then the most any run of the transaction's own undo, newest first, needs
   beyond the free space it leaves. *)
let freed_key : (int, int) Hashtbl.t Dmx_txn.Tmap.key =
  Dmx_txn.Tmap.new_key "heap.freed"

let hold ctx page bytes =
  let txn = ctx.Ctx.txn in
  match Dmx_txn.Txn.attr txn freed_key with
  | Some freed ->
    let held = Option.value ~default:0 (Hashtbl.find_opt freed page) in
    Hashtbl.replace freed page (max 0 (held + bytes))
  | None when bytes > 0 ->
    let freed = Hashtbl.create 8 in
    Hashtbl.replace freed page bytes;
    Dmx_txn.Txn.set_attr txn freed_key freed
  | None -> ()

let side_len = function Some p -> String.length p | None -> 0

(* What the other active transactions hold on [page]. *)
let held_by_others ctx page =
  List.fold_left
    (fun acc txn ->
      match Dmx_txn.Txn.attr txn freed_key with
      | Some freed when txn != ctx.Ctx.txn ->
        acc + Option.value ~default:0 (Hashtbl.find_opt freed page)
      | Some _ | None -> acc)
    0
    (Dmx_txn.Txn_mgr.active_txns ctx.Ctx.txn_mgr)

let encode_payload record = Bytes.to_string (Codec.encode_record record)

let rid_parts = function
  | Record_key.Rid { page; slot } -> Some (page, slot)
  | Record_key.Fields _ -> None

(* ---- slot images ---- *)

let enc_rid e (page, slot) =
  Codec.Enc.varint e page;
  Codec.Enc.varint e slot

let dec_rid d =
  let page = Codec.Dec.varint d in
  (page, Codec.Dec.varint d)

(* Forward callers hand over only payloads that fit ([Slotted.fits]) and
   leave the bytes other transactions hold, and redo checks fit before it
   writes. So undo always finds its bytes, and a write that fails is a
   broken invariant. *)
let set_slot data (page, slot) ~log f =
  Image.change enc_rid ~log
    ~read:(fun () -> Slotted.read data slot)
    ~write:(fun after ->
      if not (Slotted.set data slot after) then
        Error.raise_err
          (Error.Internal
             (Fmt.str "heap: cannot write record at rid(%d,%d)" page slot)))
    (page, slot) f

(* An image's page was added to the directory, under a record logged before
   it, when it was allocated. Restart grows the store to every page the log
   names ({!page_bound}), so the page exists, though it may be zeroed: redo
   formats it before its first write. The page is marked dirty only when
   the replay changed it. *)
let redo_undo_slot ctx data f =
  let img = Image.decode dec_rid data in
  let page, _ = img.target in
  let applied = ref false in
  if Buffer_pool.page_live ctx.Ctx.bp page then
    ignore
      (with_page_if ctx page (fun data ->
           let formatted = Slotted.formatted data in
           if not formatted then Slotted.init data;
           applied := f img data;
           !applied || not formatted));
  (img, !applied)

(* An undone insert releases its slot at once. *)
let undo_slot ctx data =
  let img, reversed =
    redo_undo_slot ctx data (fun img data ->
        let reversed =
          Image.undo img ~set:(set_slot data img.target ~log:ignore)
        in
        if reversed then begin
          hold ctx (fst img.target) (side_len img.after - side_len img.before);
          if img.before = None then Slotted.make_reusable data (snd img.target)
        end;
        reversed)
  in
  if reversed then Image.count_delta img else 0

(* Whether a record logged before the one being replayed changed [target]:
   the same source and relation, so the same image encoding, and a page
   belongs to one relation. Read only on the rare image that does not fit,
   so it decodes the log itself. *)
let slot_logged_before ctx target =
  let wal = Dmx_txn.Txn_mgr.wal ctx.Ctx.txn_mgr in
  let log = Dmx_wal.Wal.read_all wal in
  match
    Dmx_wal.Recovery.find ~base:(Dmx_wal.Wal.base_lsn wal) log ctx.Ctx.lsn
  with
  | Some { kind = Ext { source; rel_id; _ }; _ } ->
    Array.exists
      (fun (r : Log_record.t) ->
        match r.kind with
        | Ext { source = s; rel_id = id; data }
          when r.lsn < ctx.Ctx.lsn && s = source && id = rel_id ->
          (Image.decode dec_rid data).target = target
        | _ -> false)
      log
  | _ -> true (* redo replays only Ext records; assume the worst *)

(* An image that does not fit meets a page newer than its record: the page
   at that record's time had room, so a later record took the bytes. When
   no earlier record touched the slot, the slot still holds what the page
   holds, a state at or after this record's, and the image counts as not
   applied. Otherwise redo may have walked the slot back to an earlier
   state by a false match (an insert re-applied to a slot a later delete
   emptied), and skipping would leave that state behind; the page's age is
   not on it, so restart stops instead. The record count is advisory, so
   redo leaves it alone. *)
let redo_slot ctx data =
  snd
    (redo_undo_slot ctx data (fun img data ->
         let page, slot = img.target in
         match img.after with
         | Some p when not (Slotted.fits data slot p) ->
           if slot_logged_before ctx img.target then
             Error.raise_err
               (Error.Internal
                  (Fmt.str
                     "heap redo: record at rid(%d,%d) does not fit a page an \
                      earlier image of its slot may have walked back"
                     page slot))
           else false
         | Some _ | None ->
           Image.redo img ~set:(set_slot data img.target ~log:ignore)))

(* A fresh data page, formatted and added to the directory of [head]: each
   directory record goes to [log], then is written. A full tail first
   chains a fresh directory page. *)
let log_new_page ctx ~log head =
  let listed op =
    log (enc_dir_op op);
    ignore (apply_dir_op ctx op)
  in
  let fresh format =
    let frame = Buffer_pool.alloc ctx.Ctx.bp in
    if format then Slotted.init frame.Buffer_pool.data;
    Buffer_pool.unpin ~dirty:true ctx.Ctx.bp frame;
    frame.Buffer_pool.page_id
  in
  let page = fresh true in
  let tail = tail_of ctx head in
  let n, room = with_page ctx tail (fun d -> (get d off_len, dir_capacity d)) in
  if n < room then listed (Append { dir = tail; index = n; page })
  else begin
    let dir = fresh false in
    listed (Link { head; from = tail; page = dir });
    listed (Append { dir; index = 0; page })
  end;
  page

let last_page ctx head = find_back ctx head (fun _ -> true)

(* The head of a fresh directory is a zeroed page, so it is allocated in
   the store with nothing written to it: there is no change to log, and the
   DDL commit's sync makes the allocation durable. *)
let create_head ctx = Disk.alloc (Buffer_pool.disk ctx.Ctx.bp)

(* ---- scans over the directory's pages (shared with readonly) ---- *)

(* One run per data page, every live slot decoded under a single pin —
   buffer-pool pins per scan are O(pages). The position between runs is the
   index of the last delivered page. One loop walks a page's slot directory
   whatever the filter. Without one, every live record is a hit. With one,
   the span matcher answers on the payload in the page image when the
   predicate has its shape; otherwise, or when the matcher falls back, the
   predicate is tested on the decoded record. A hit is decoded in place
   ([Codec.Dec.of_string_span]) and written straight into the page's run,
   made at the page's first hit with room for every slot left and trimmed
   at the end if the page had fewer hits, so a record the matcher rejects
   allocates nothing. Data pages are read through the pool's sequential
   reader, which caches none of them when the relation has more pages than
   the pool ([Buffer_pool.scan_reader]); the directory pages are pinned. *)
let scan_pages ctx (desc : Descriptor.t) ~filter =
  let matcher =
    match filter with
    | None -> fun _ ~pos:_ ~len:_ -> Some true
    | Some pred -> (
      match Dmx_expr.Eval.compile_span desc.Descriptor.schema pred with
      | Some f -> f
      | None -> fun _ ~pos:_ ~len:_ -> None)
  in
  (* the pages listed at open: a record an update moves to a page added
     later is not met again *)
  let pages = data_pages ctx (head_of desc) in
  let reader =
    Buffer_pool.scan_reader ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id
      ~poison:(Invariant.enabled ()) ctx.Ctx.bp ~pages:(Array.length pages)
  in
  let pos = ref (-1) in
  let decode_page page data =
    (* Read-only view of the page's bytes; decoded values copy what they
       need out of it, nothing retains the view past the callback. *)
    let img = Bytes.unsafe_to_string data in
    let slots = Slotted.slot_count data in
    let decode off len =
      Codec.Dec.record (Codec.Dec.of_string_span img ~pos:off ~len)
    in
    (* [run.(0 .. k-1)] are the hits before slot [s] *)
    let rec walk s run k =
      if s >= slots then
        if k = 0 then None
        else if k = Array.length run then Some run
        else Some (Array.sub run 0 k)
      else
        let entry = Slotted.header_size + (s * Slotted.slot_size) in
        let off = Bytes.get_uint16_le data entry in
        if off = Slotted.dead then walk (s + 1) run k
        else
          let len = Bytes.get_uint16_le data (entry + 2) in
          match matcher img ~pos:off ~len with
          | Some false -> walk (s + 1) run k
          | Some true -> hit s run k (decode off len)
          | None ->
            let record = decode off len in
            let keep =
              match filter with
              | Some pred -> Dmx_expr.Eval.test record pred
              | None -> true
            in
            if keep then hit s run k record else walk (s + 1) run k
    and hit s run k record =
      let h = (Record_key.rid ~page ~slot:s, record) in
      let run = if k = 0 then Array.make (slots - s) h else run in
      run.(k) <- h;
      walk (s + 1) run (k + 1)
    in
    walk 0 [||] 0
  in
  let next_run () =
    let rec advance page_idx =
      if page_idx >= Array.length pages then None
      else
        let page = pages.(page_idx) in
        match Buffer_pool.with_scan_page reader page (decode_page page) with
        | None -> advance (page_idx + 1)
        | Some run ->
          pos := page_idx;
          Some run
    in
    advance (!pos + 1)
  in
  {
    Intf.rn_next = next_run;
    rn_close = (fun () -> ());
    rn_capture =
      (fun () ->
        let saved = !pos in
        fun () -> pos := saved);
  }

(* ---- generic operations ---- *)

module Impl = struct
  let name = "heap"
  let attr_specs = []

  let create ctx ~rel_id (_schema : Schema.t) _attrs =
    ignore rel_id;
    Ok (enc_desc (create_head ctx))

  let destroy ctx ~rel_id ~smethod_desc =
    (* The page store has no deallocation; pages of dropped relations are
       simply abandoned (see DESIGN.md). *)
    ignore ctx;
    ignore rel_id;
    ignore smethod_desc

  (* Insert, one record or many (registered as the batch vector entry;
     [insert] is a batch of one). Placement is first-fit, newest page first:
     a page's free space is probed only when no page probed earlier in the
     batch has room, and remembered for the rest of the batch, so a batch
     pins pages only until one fits. Consecutive records fill one pinned page
     until it no longer fits the next record. A page's free space leaves the
     bytes other transactions hold. Each record's image is logged before the
     slot write that places it, so a page evicted mid-batch never reaches
     disk ahead of its undo information; a record logged but never placed
     undoes as a no-op. A fresh page is listed in the directory before its
     first record goes in. *)
  let insert_batch ctx (desc : Descriptor.t) records =
    let n = Array.length records in
    let page_size = Disk.page_size (Buffer_pool.disk ctx.Ctx.bp) in
    let payloads = Array.map encode_payload records in
    match
      Array.find_opt
        (fun p -> String.length p > Slotted.max_payload page_size)
        payloads
    with
    | Some p ->
      Error
        (Error.Schema_error
           (Fmt.str "record of %d bytes exceeds page capacity"
              (String.length p)))
    | None ->
      let head = head_of desc in
      let keys = Array.make n (Record_key.rid ~page:0 ~slot:0) in
      let failure = ref None in
      let log = log ctx ~rel_id:desc.rel_id in
      let free_space p data =
        Slotted.free_space ~reserved:(held_by_others ctx p) data
      in
      (* Insert records [i..] into page [p] under one pin until one no longer
         fits; returns the first unplaced index. *)
      let fill_page p i =
        with_page_mut ctx p (fun data ->
            let reserved = held_by_others ctx p in
            let rec fill j taken =
              if
                j >= n
                || Slotted.free_space ~reserved data
                   < String.length payloads.(j)
              then begin
                hold ctx p (-taken);
                j
              end
              else begin
                let slot = Slotted.next_slot data in
                ignore (set_slot data (p, slot) ~log (fun _ -> Some payloads.(j)));
                keys.(j) <- Record_key.rid ~page:p ~slot;
                fill (j + 1) (taken + String.length payloads.(j))
              end
            in
            fill i 0)
      in
      (* Each page's free space once probed, newest page first, read from
         the directory as far as the search goes; a page this batch filled
         (-1) is never a candidate again. *)
      let free = Hashtbl.create 8 in
      let fits len p =
        let fs =
          match Hashtbl.find_opt free p with
          | Some fs -> fs
          | None ->
            let fs = with_page ctx p (free_space p) in
            Hashtbl.replace free p fs;
            fs
        in
        fs >= len
      in
      let rec place i =
        if i >= n || !failure <> None then ()
        else begin
          match find_back ctx head (fits (String.length payloads.(i))) with
          | Some p ->
            Hashtbl.replace free p (-1);
            place (fill_page p i)
          | None ->
            let p = log_new_page ctx ~log head in
            Hashtbl.replace free p (-1);
            let next = fill_page p i in
            if next = i && !failure = None then
              failure := Some (Error.Internal "heap: fresh page rejected record")
            else place next
        end
      in
      place 0;
      match !failure with
      | Some e -> Error e
      | None ->
        add_count ctx head n;
        Ok keys

  let insert ctx desc record =
    Result.map (fun keys -> keys.(0)) (insert_batch ctx desc [| record |])

  let read_rid ctx key =
    match rid_parts key with
    | None -> None
    | Some (page, slot) ->
      with_page ctx page (fun data -> Slotted.read data slot)

  let fetch ctx (desc : Descriptor.t) key ?fields () =
    ignore desc;
    match read_rid ctx key with
    | None -> None
    | Some payload ->
      let record = Codec.Dec.record (Codec.Dec.of_string payload) in
      Some
        (match fields with
        | None -> record
        | Some fs -> Record.project record fs)

  let delete ctx (desc : Descriptor.t) key =
    let not_found = Error (Error.Key_not_found (Record_key.to_string key)) in
    match rid_parts key with
    | None -> not_found
    | Some rid -> begin
      match
        with_page_mut ctx (fst rid) (fun data ->
            set_slot data rid ~log:(log ctx ~rel_id:desc.rel_id) (fun _ ->
                None))
      with
      | None -> not_found
      | Some payload ->
        (* Deferred reclamation: the freed bytes stay held until the
           deleting transaction ends, and the slot becomes reusable only
           once it commits. *)
        let bp = ctx.Ctx.bp in
        let page, slot = rid in
        hold ctx page (String.length payload);
        Ctx.defer ctx Dmx_txn.Txn.On_commit (fun () ->
            let frame = Buffer_pool.pin bp page in
            Slotted.make_reusable frame.Buffer_pool.data slot;
            Buffer_pool.unpin ~dirty:true bp frame);
        add_count ctx (head_of desc) (-1);
        Ok (Codec.Dec.record (Codec.Dec.of_string payload))
    end

  (* In place when the record fits beside the bytes others hold; a shrink
     holds the bytes it frees, a grow gives back what it takes of them. *)
  let update ctx (desc : Descriptor.t) key new_record =
    let payload = encode_payload new_record in
    let in_place =
      match rid_parts key with
      | None -> false
      | Some ((page, slot) as rid) ->
        with_page_mut ctx page (fun data ->
            Slotted.fits ~reserved:(held_by_others ctx page) data slot payload
            &&
            match
              set_slot data rid ~log:(log ctx ~rel_id:desc.rel_id)
                (Option.map (fun _ -> payload))
            with
            | None -> false
            | Some old ->
              hold ctx page (String.length old - String.length payload);
              true)
    in
    if in_place then Ok key
    else
      (* Does not fit: relocate; the record key changes. A dead slot fails
         the delete. *)
      match delete ctx desc key with
      | Error _ as e -> e
      | Ok _ -> insert ctx desc new_record

  let key_fields _desc = None

  let record_count ctx desc = count_of ctx (head_of desc)

  (* The one scan implementation (registered as the batch vector entry; the
     record cursor [scan] adapts it). RIDs have no order, so key bounds are
     ignored (the planner never produces them for address-keyed methods). *)
  let scan_batch ctx desc ~lo:_ ~hi:_ ~filter = scan_pages ctx desc ~filter

  let scan ctx desc ?(lo = Intf.Unbounded) ?(hi = Intf.Unbounded) ?filter () =
    Scan_help.records_of_runs ctx (scan_batch ctx desc ~lo ~hi ~filter)

  let estimate_scan ctx (desc : Descriptor.t) ~eligible =
    let head = head_of desc in
    let pages = float_of_int (max 1 (page_total ctx head 0)) in
    let rows = float_of_int (count_of ctx head) in
    let sel =
      List.fold_left
        (fun acc p -> acc *. Dmx_expr.Analyze.selectivity p)
        1.0 eligible
    in
    {
      Cost.cost = Cost.make ~io:pages ~cpu:(rows *. 2.);
      est_rows = rows *. sel;
      matched = eligible;  (* the common filter service applies them all *)
      residual = [];
      ordered_by = None;
    }

  (* ---- log-driven undo and redo (testable) ---- *)

  (* The advisory count follows an insert or delete that undo actually
     reversed, except when restart repeats a Clr. A directory record is not
     undone. *)
  let undo ctx ~rel_id ~data =
    Option.iter
      (fun desc ->
        if not (is_dir_op data) then begin
          let delta = undo_slot ctx data in
          if delta <> 0 && not ctx.Ctx.replay then
            add_count ctx (head_of desc) delta
        end)
      (Catalog.find_by_id ctx.Ctx.catalog rel_id)

  let redo ctx ~rel_id ~data =
    if Catalog.find_by_id ctx.Ctx.catalog rel_id <> None then
      if
        if is_dir_op data then apply_dir_op ctx (dec_dir_op data)
        else redo_slot ctx data
      then Ctx.applied ctx
end

include Impl

let register () =
  register ~insert_batch ~scan_batch ~page_bound ~redo:Impl.redo
    (module Impl : Intf.STORAGE_METHOD)
