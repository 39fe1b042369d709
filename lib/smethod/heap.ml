open Dmx_value
open Dmx_page
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist
module Catalog = Dmx_catalog.Catalog
module Log_record = Dmx_wal.Log_record

let reg_id : int option ref = ref None [@@dmx.global "config-immutable-after-setup"]

let id () =
  match !reg_id with
  | Some id -> id
  | None -> Error.raise_err (Error.Internal "Heap: storage method not registered")

(* ---- descriptor: data page list + advisory record count ---- *)

type hdesc = { pages : int list; count : int }

let enc_desc d =
  let e = Codec.Enc.create () in
  Codec.Enc.list e (fun e p -> Codec.Enc.varint e p) d.pages;
  Codec.Enc.varint e d.count;
  Codec.Enc.to_string e

let dec_desc s =
  let d = Codec.Dec.of_string s in
  let pages = Codec.Dec.list d Codec.Dec.varint in
  let count = Codec.Dec.varint d in
  { pages; count }

let hdesc_of (desc : Descriptor.t) = dec_desc desc.smethod_desc

let store_desc ctx (desc : Descriptor.t) hd =
  Catalog.set_smethod_desc ctx.Ctx.catalog ~rel_id:desc.rel_id (enc_desc hd)

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

(* Forward callers hand over only payloads that fit ([Slotted.fits]), so
   the write fails only when undo cannot put a record back. *)
let set_slot data (page, slot) ~log f =
  Image.change enc_rid ~log
    ~read:(fun () -> Slotted.read data slot)
    ~write:(fun after ->
      if not (Slotted.set data slot after) then
        failwith
          (Fmt.str "heap undo: cannot reinstate record at rid(%d,%d)" page
             slot))
    (page, slot) f

(* Restart replays images on the pages the relation's descriptor lists.
   Restart extends the store to the last catalog snapshot's page count, so a
   listed page exists, though it may be zeroed: redo formats it before its
   first write. A page no snapshot listed belonged to a loser and may since
   have been allocated to a re-run split, so its images are left alone.
   The page is marked dirty only when the replay changed it. *)
let redo_undo_slot ctx ~pages data f =
  let img = Image.decode dec_rid data in
  let page, _ = img.target in
  if not (List.mem page pages && Buffer_pool.page_live ctx.Ctx.bp page) then
    (img, false)
  else begin
    let frame =
      Buffer_pool.pin ~txid:ctx.Ctx.txn.Dmx_txn.Txn.id ctx.Ctx.bp page
    in
    let changed = ref false in
    Fun.protect
      ~finally:(fun () ->
        Buffer_pool.unpin ~dirty:!changed ctx.Ctx.bp frame)
      (fun () ->
        let data = frame.Buffer_pool.data in
        if not (Slotted.formatted data) then begin
          Slotted.init data;
          changed := true
        end;
        let applied = f img data in
        if applied then changed := true;
        (img, applied))
  end

(* An undone insert releases its slot at once. *)
let undo_slot ctx ~pages data =
  let img, reversed =
    redo_undo_slot ctx ~pages data (fun img data ->
        let reversed =
          Image.undo img ~set:(set_slot data img.target ~log:ignore)
        in
        if reversed && img.before = None then
          Slotted.make_reusable data (snd img.target);
        reversed)
  in
  if reversed then Image.count_delta img else 0

(* The catalog snapshot saved at commit already holds the record count, so
   redo leaves it alone. *)
let redo_slot ctx ~pages data =
  snd
    (redo_undo_slot ctx ~pages data (fun img data ->
         Image.redo img ~set:(set_slot data img.target ~log:ignore)))

let log_image ctx (desc : Descriptor.t) data =
  ignore
    (Ctx.log ctx ~source:(Log_record.Smethod (id ())) ~rel_id:desc.rel_id
       ~data)

(* ---- generic operations ---- *)

module Impl = struct
  let name = "heap"
  let attr_specs = []

  let create ctx ~rel_id (_schema : Schema.t) attrs =
    ignore ctx;
    ignore rel_id;
    match Attrlist.validate attr_specs attrs with
    | Error e -> Error (Error.Ddl_error e)
    | Ok () -> Ok (enc_desc { pages = []; count = 0 })

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
     until it no longer fits the next record. Each record's image is logged
     before the slot write that places it, so a page evicted mid-batch never
     reaches disk ahead of its undo information; a record logged but never
     placed undoes as a no-op. One descriptor write-back per batch. *)
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
      let hd = hdesc_of desc in
      let keys = Array.make n (Record_key.rid ~page:0 ~slot:0) in
      let failure = ref None in
      let log = log_image ctx desc in
      (* Insert records [i..] into page [p] under one pin until one no longer
         fits; returns the first unplaced index. *)
      let fill_page p i =
        with_page_mut ctx p (fun data ->
            let rec fill j =
              if j >= n || Slotted.free_space data < String.length payloads.(j)
              then j
              else begin
                let slot = Slotted.next_slot data in
                ignore (set_slot data (p, slot) ~log (fun _ -> Some payloads.(j)));
                keys.(j) <- Record_key.rid ~page:p ~slot;
                fill (j + 1)
              end
            in
            fill i)
      in
      (* The relation's pages, newest first, with their free space once
         probed; a page this batch filled is never a candidate again. *)
      let pages = Array.of_list (List.rev hd.pages) in
      let free = Array.make (Array.length pages) None in
      let rec candidate len k =
        if k >= Array.length pages then None
        else begin
          if free.(k) = None then
            free.(k) <- Some (with_page ctx pages.(k) Slotted.free_space);
          match free.(k) with
          | Some fs when fs >= len -> Some k
          | Some _ | None -> candidate len (k + 1)
        end
      in
      let new_pages = ref [] in
      let rec place i =
        if i >= n || !failure <> None then ()
        else begin
          match candidate (String.length payloads.(i)) 0 with
          | Some k ->
            free.(k) <- Some (-1);
            place (fill_page pages.(k) i)
          | None ->
            let frame = Buffer_pool.alloc ctx.Ctx.bp in
            Slotted.init frame.Buffer_pool.data;
            Buffer_pool.unpin ~dirty:true ctx.Ctx.bp frame;
            let p = frame.Buffer_pool.page_id in
            new_pages := p :: !new_pages;
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
        store_desc ctx desc
          { pages = hd.pages @ List.rev !new_pages; count = hd.count + n };
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
      let record = Codec.decode_record (Bytes.of_string payload) in
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
            set_slot data rid ~log:(log_image ctx desc) (fun _ -> None))
      with
      | None -> not_found
      | Some payload ->
        (* Deferred reclamation: the slot becomes reusable only once the
           deleting transaction commits. *)
        let bp = ctx.Ctx.bp in
        let page, slot = rid in
        Ctx.defer ctx Dmx_txn.Txn.On_commit (fun () ->
            let frame = Buffer_pool.pin bp page in
            Slotted.make_reusable frame.Buffer_pool.data slot;
            Buffer_pool.unpin ~dirty:true bp frame);
        let hd = hdesc_of desc in
        store_desc ctx desc { hd with count = max 0 (hd.count - 1) };
        Ok (Codec.decode_record (Bytes.of_string payload))
    end

  let update ctx (desc : Descriptor.t) key new_record =
    let payload = encode_payload new_record in
    let in_place =
      match rid_parts key with
      | None -> false
      | Some ((page, slot) as rid) ->
        with_page_mut ctx page (fun data ->
            Slotted.fits data slot payload
            && set_slot data rid ~log:(log_image ctx desc)
                 (Option.map (fun _ -> payload))
               <> None)
    in
    if in_place then Ok key
    else
      (* Does not fit: relocate; the record key changes. A dead slot fails
         the delete. *)
      match delete ctx desc key with
      | Error _ as e -> e
      | Ok _ -> insert ctx desc new_record

  let key_fields _desc = None

  let record_count ctx (desc : Descriptor.t) =
    ignore ctx;
    (hdesc_of desc).count

  (* The one scan implementation (registered as the batch vector entry; the
     record cursor [scan] adapts it): one run per data page, every live slot
     decoded under a single pin — buffer-pool pins per scan are O(pages).
     The position between runs is the index of the last delivered page;
     RIDs have no order, so key bounds are ignored (the planner never
     produces them for address-keyed methods).

     Because the whole page is processed under one pin, payloads are decoded
     in place from the page image ([Slotted.iter_spans] +
     [Codec.Dec.of_string_span]) instead of being copied out first. With a
     filter, the span matcher runs on the payload when the predicate has
     its shape; otherwise the predicate is evaluated on a
     late-materialized record: only the fields the predicate reads are
     decoded (the rest are skipped in the encoding), and a full record is
     built only for qualifying slots. *)
  let scan_batch ctx (desc : Descriptor.t) ~lo ~hi ~filter =
    ignore lo;
    ignore hi;
    let schema = desc.Descriptor.schema in
    let arity = Schema.arity schema in
    let span_test = Option.bind filter (Dmx_expr.Eval.compile_span schema) in
    (* fields the predicate reads; late materialization decodes only these *)
    let needed =
      match filter with
      | None -> [||]
      | Some pred ->
        let b = Array.make arity false in
        List.iter
          (fun i -> if i >= 0 && i < arity then b.(i) <- true)
          (Dmx_expr.Expr.fields_used pred);
        b
    in
    (* Scratch record for predicate evaluation: needed fields are overwritten
       for every slot, the rest stay Null. Qualifying slots get a fresh full
       decode, so the scratch never escapes this scan. *)
    let scratch = Array.make (max 1 arity) Value.Null in
    (* Fallback when the filter is not span-compilable (or a payload
       deviates from the schema): materialize what the predicate reads and
       evaluate the predicate on it. *)
    let scratch_admits pred img off len =
      let d = Codec.Dec.of_string_span img ~pos:off ~len in
      let fields = Codec.Dec.varint d in
      if fields <> arity then
        (* width drift: evaluate exactly what a full decode sees *)
        Dmx_expr.Eval.test
          (Codec.Dec.record (Codec.Dec.of_string_span img ~pos:off ~len))
          pred
      else begin
        for i = 0 to fields - 1 do
          if needed.(i) then scratch.(i) <- Codec.Dec.value d
          else Codec.Dec.skip_value d
        done;
        Dmx_expr.Eval.test scratch pred
      end
    in
    (* Chosen once per scan open: no filter, span-compiled, or fallback. *)
    let admit =
      match filter with
      | None -> fun _ _ _ -> true
      | Some pred -> begin
        match span_test with
        | Some f ->
          fun img off len -> begin
            match f img ~pos:off ~len with
            | Some keep -> keep
            | None -> scratch_admits pred img off len
          end
        | None -> scratch_admits pred
      end
    in
    let pages = Array.of_list (hdesc_of desc).pages in
    let pos = ref (-1) in
    let decode_page page data =
      (* Read-only view of the pinned frame; decoded values copy what they
         need out of it, nothing retains the view past the unpin. *)
      let img = Bytes.unsafe_to_string data in
      let hits = ref [] in
      let count = ref 0 in
      Slotted.iter_spans data (fun s off len ->
          if admit img off len then begin
            let d = Codec.Dec.of_string_span img ~pos:off ~len in
            hits :=
              (Record_key.rid ~page ~slot:s, Codec.Dec.record d) :: !hits;
            incr count
          end);
      match !hits with
      | [] -> None
      | first :: _ ->
        (* ascending slot iteration prepended, so fill back-to-front *)
        let run = Array.make !count first in
        let rec fill i hs =
          match hs with
          | [] -> ()
          | h :: tl ->
            run.(i) <- h;
            fill (i - 1) tl
        in
        fill (!count - 1) !hits;
        Some run
    in
    let next_run () =
      let rec advance page_idx =
        if page_idx >= Array.length pages then None
        else
          let page = pages.(page_idx) in
          match with_page ctx page (decode_page page) with
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

  let scan ctx desc ?(lo = Intf.Unbounded) ?(hi = Intf.Unbounded) ?filter () =
    Scan_help.records_of_runs ctx (scan_batch ctx desc ~lo ~hi ~filter)

  let estimate_scan ctx (desc : Descriptor.t) ~eligible =
    ignore ctx;
    let hd = hdesc_of desc in
    let pages = float_of_int (max 1 (List.length hd.pages)) in
    let rows = float_of_int hd.count in
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

  (* ---- log-driven undo (testable) ---- *)

  (* The descriptor's advisory count follows an insert or delete that undo
     actually reversed, except when restart repeats a Clr: the catalog
     snapshot already holds that count. *)
  let undo ctx ~rel_id ~data =
    Option.iter
      (fun desc ->
        let hd = hdesc_of desc in
        let delta = undo_slot ctx ~pages:hd.pages data in
        if delta <> 0 && not ctx.Ctx.replay then
          store_desc ctx desc { hd with count = max 0 (hd.count + delta) })
      (Catalog.find_by_id ctx.Ctx.catalog rel_id)

  let redo ctx ~rel_id ~data =
    Option.iter
      (fun desc ->
        if redo_slot ctx ~pages:(hdesc_of desc).pages data then Ctx.applied ctx)
      (Catalog.find_by_id ctx.Ctx.catalog rel_id)
end

include Impl

let register () =
  match !reg_id with
  | Some id -> id
  | None ->
    let id =
      Registry.register_storage_method (module Impl : Intf.STORAGE_METHOD)
    in
    reg_id := Some id;
    Registry.set_sm_redo id Impl.redo;
    Registry.set_sm_insert_batch id Impl.insert_batch;
    Registry.set_sm_scan_batch id Impl.scan_batch;
    id
