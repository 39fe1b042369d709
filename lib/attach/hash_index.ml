open Dmx_value
open Dmx_page
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist

(* [buckets] logical buckets, mapped to bucket pages by the directory pages
   [dir]. *)
type inst = {
  fields : int array;
  unique : bool;
  buckets : int;
  dir : int array;
}

module Slot = Attach_util.Slot (struct
  let name = "hash_index"

  type t = inst

  let enc e i =
    Codec.Enc.list e (fun e f -> Codec.Enc.varint e f) (Array.to_list i.fields);
    Codec.Enc.bool e i.unique;
    Codec.Enc.varint e i.buckets;
    Codec.Enc.list e (fun e p -> Codec.Enc.varint e p) (Array.to_list i.dir)

  let dec d =
    let fields = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
    let unique = Codec.Dec.bool d in
    let buckets = Codec.Dec.varint d in
    let dir = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
    { fields; unique; buckets; dir }
end)

let id = Slot.id
let max_buckets = 4096

(* [land max_int], not [abs]: [abs min_int] is [min_int]. *)
let bucket_of_hash h n = (h land max_int) mod n

let bucket_index inst vals =
  bucket_of_hash
    (Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 vals)
    inst.buckets

(* ---- pages ----

   A directory page holds one 4-byte page id per logical bucket. Only the
   directory says which logical buckets a bucket page serves: its run, the
   contiguous slots naming it. A bucket page is a fixed-width header, then
   its entries packed as (record, record key):

     0  used   u16  end of the last entry
     2  count  u16  number of entries
     4  next   u32  overflow page, 0 for none

   A page whose run is more than one bucket has no overflow page: when it
   is full it splits its run in two. A full single-bucket page chains an
   overflow page. A page allocated but never written is all zeroes and
   reads as empty. *)

let header = 8
let page_size ctx = Disk.page_size (Buffer_pool.disk ctx.Ctx.bp)
let dir_slots ctx = page_size ctx / 4

let get_u32 b off =
  Bytes.get_uint16_le b off lor (Bytes.get_uint16_le b (off + 2) lsl 16)

let set_u32 b off v =
  Bytes.set_uint16_le b off (v land 0xffff);
  Bytes.set_uint16_le b (off + 2) (v lsr 16)

let used b = max header (Bytes.get_uint16_le b 0)
let count b = Bytes.get_uint16_le b 2
let next b = get_u32 b 4

let set_header b ~used ~count ~next =
  Bytes.set_uint16_le b 0 used;
  Bytes.set_uint16_le b 2 count;
  set_u32 b 4 next

(* The head of logical bucket [b]'s chain: one directory page pinned. *)
let dir_entry ctx inst b =
  let per = dir_slots ctx in
  Buffer_pool.with_page ctx.Ctx.bp inst.dir.(b / per) (fun fr ->
      get_u32 fr.Buffer_pool.data (4 * (b mod per)))

(* The whole directory, one directory page pinned at a time. *)
let read_dir ctx inst =
  let per = dir_slots ctx and d = Array.make inst.buckets 0 in
  Array.iteri
    (fun i id ->
      Buffer_pool.with_page ctx.Ctx.bp id (fun fr ->
          for b = i * per to min inst.buckets ((i + 1) * per) - 1 do
            d.(b) <- get_u32 fr.Buffer_pool.data (4 * (b - (i * per)))
          done))
    inst.dir;
  d

(* The run [lo, hi) of the page the directory [d] names for bucket [b]. *)
let run d b =
  let page = d.(b) in
  let lo = ref b and hi = ref (b + 1) in
  while !lo > 0 && d.(!lo - 1) = page do decr lo done;
  while !hi < Array.length d && d.(!hi) = page do incr hi done;
  (!lo, !hi)

(* Pin the pages of logical bucket [b]'s chain in turn, head first, until
   [f page data] returns true. *)
let walk_chain ctx inst b f =
  let rec go page =
    if page <> 0 then
      go
        (Buffer_pool.with_page ctx.Ctx.bp page (fun fr ->
             let data = fr.Buffer_pool.data in
             if f page data then 0 else next data))
  in
  go (dir_entry ctx inst b)

(* Where the entry at [p] of a page image ends: a record, then a record
   key, each stepped over by its lengths in place. *)
let entry_end s p = Record_key.end_at s (Codec.record_end s p)

let entry_bucket inst s p stop =
  bucket_index inst
    (Codec.Dec.record (Codec.Dec.of_string_span s ~pos:p ~len:(stop - p)))

(* Last byte first: keys that differ tend to differ at the end. *)
let rec same_bytes s p key i =
  i < 0 || (s.[p + i] = String.unsafe_get key i && same_bytes s p key (i - 1))

(* Whether the page image [s] holds the bytes [key] at [p]. *)
let bytes_at s p key =
  let n = String.length key in
  p + n <= String.length s && same_bytes s p key (n - 1)

(* A probe key. Equal values have equal encodings, save floats (0.0 and
   -0.0, NaN payloads): a key holding none is matched on its bytes, any
   other value by value with [Codec.Dec.compare_value]. *)
type key = { vals : Value.t array; enc : string; exact : bool }

let no_float = Array.for_all (function Value.Float _ -> false | _ -> true)

let probe_key vals =
  let e = Codec.Enc.create () in
  Codec.Enc.record e vals;
  { vals; enc = Codec.Enc.to_string e; exact = no_float vals }

let record_matches s p vals =
  let d = Codec.Dec.of_string_span s ~pos:p ~len:(String.length s - p) in
  Codec.Dec.varint d = Array.length vals
  && Array.for_all (fun v -> Codec.Dec.compare_value d v = 0) vals

(* Call [f start stop] on every entry of the page whose key is [k], the
   entry spanning [start, stop); stops when [f] returns true. *)
let find_in_page data k f =
  let s = Bytes.unsafe_to_string data and last = used data in
  let rec go p =
    p < last
    &&
    let stop = entry_end s p in
    ((if k.exact then bytes_at s p k.enc else record_matches s p k.vals)
    && f p stop)
    || go stop
  in
  go header

let reckey_at s p stop =
  let q = Codec.record_end s p in
  Record_key.dec (Codec.Dec.of_string_span s ~pos:q ~len:(stop - q))

(* The record keys filed under [vals]; a unique index stops at the first. *)
let find_keys ctx inst vals =
  let k = probe_key vals and acc = ref [] in
  walk_chain ctx inst (bucket_index inst vals) (fun _ data ->
      find_in_page data k (fun p stop ->
          acc := reckey_at (Bytes.unsafe_to_string data) p stop :: !acc;
          inst.unique));
  List.rev !acc

(* ---- entry edits in the frame ---- *)

(* One walk of an entry's chain: where the entry is, the first page with
   room for it, and whether any entry has its key. *)
type probe = {
  bucket : int;
  bytes : string;  (* the entry's encoding *)
  holder : (int * int * int) option;  (* page, first byte, end *)
  room : int;  (* 0 when no chain page has room *)
  dup : bool;
}

let probe ctx inst vals reckey =
  let bucket = bucket_index inst vals and k = probe_key vals in
  let bytes = k.enc ^ Bytes.to_string (Record_key.encode reckey) in
  let exact =
    k.exact
    && match reckey with Fields vs -> no_float vs | Rid _ -> true
  in
  let limit = page_size ctx - String.length bytes in
  let holder = ref None and room = ref 0 and dup = ref false in
  walk_chain ctx inst bucket (fun page data ->
      if !room = 0 && used data <= limit then room := page;
      let s = Bytes.unsafe_to_string data in
      find_in_page data k (fun p stop ->
          dup := true;
          (if exact then stop - p = String.length bytes && bytes_at s p bytes
           else Record_key.equal (reckey_at s p stop) reckey)
          && begin
            holder := Some (page, p, stop);
            true
          end));
  { bucket; bytes; holder = !holder; room = !room; dup = !dup }

(* Append the entry [src.[p .. p+len-1]] to the page image [data]. *)
let put data src p len =
  let u = used data in
  Bytes.blit_string src p data u len;
  Bytes.set_uint16_le data 0 (u + len);
  Bytes.set_uint16_le data 2 (count data + 1)

let append ctx page bytes =
  Buffer_pool.with_page_mut ctx.Ctx.bp page (fun fr ->
      put fr.Buffer_pool.data bytes 0 (String.length bytes))

let remove ctx (page, start, stop) =
  Buffer_pool.with_page_mut ctx.Ctx.bp page (fun fr ->
      let data = fr.Buffer_pool.data in
      let u = used data in
      Bytes.blit data stop data start (u - stop);
      Bytes.set_uint16_le data 0 (u - (stop - start));
      Bytes.set_uint16_le data 2 (count data - 1))

let rec with_pages_mut bp ids f =
  match ids with
  | [] -> f []
  | id :: rest ->
    Buffer_pool.with_page_mut bp id (fun fr ->
        with_pages_mut bp rest (fun frs -> f (fr :: frs)))

(* Rewrite the page image [data] to hold the entries [(p, stop)] of [src],
   in order, keeping its overflow link. *)
let refill data src spans =
  set_header data ~used:header ~count:0 ~next:(next data);
  List.iter (fun (p, stop) -> put data src p (stop - p)) spans

(* ---- splits ----

   A split moves entries that may already be on the store, and the old
   page, the new one and the directory reach it one at a time in any order.
   So every split is made safe against any subset of its pages landing:
   - [Logged]: a forward split logs the entries it moves (below) before it
     changes a page, so the record is durable whenever one of its pages
     is, and restart's redo finishes the split. An index build (its commit
     forces the pool; its pages hold nothing before it) and the redo of a
     split record, which a later restart repeats from the same record, log
     to [ignore].
   - [Ordered]: undo and redo log nothing, so they write the new page, then
     the directory, each followed by a sync, before the old page can be
     written without the moved entries. A flush of every dirty page first
     keeps each sync a point between operations. *)
type split_mode = Logged of (string -> unit) | Ordered

(* A split record: instance, the split run [lo, hi) and its midpoint, and
   the entries moved, back to back. Its first byte is above any image's
   presence flags. *)
let split_tag = 0xff
let is_split data = data <> "" && Char.code data.[0] = split_tag

let enc_split ~no ~lo ~mid ~hi moved =
  let e = Codec.Enc.create () in
  Codec.Enc.byte e split_tag;
  List.iter (Codec.Enc.varint e) [ no; lo; mid; hi ];
  Codec.Enc.string e moved;
  Codec.Enc.to_string e

let dec_split data =
  let d = Codec.Dec.of_string data in
  ignore (Codec.Dec.byte d);
  let no = Codec.Dec.varint d in
  let lo = Codec.Dec.varint d in
  let mid = Codec.Dec.varint d in
  let hi = Codec.Dec.varint d in
  (no, lo, mid, hi, Codec.Dec.string d)

(* Split bucket page [page] at [mid]: the entries of the buckets of
   [mid, hi) whose slots in the directory [d] name the page move to a fresh
   page, and those slots name it. Entries of buckets [d] gives another page
   are dropped: only a crash between a split's page writes leaves such
   entries, and their own page or the split's redo holds them. Every page
   is pinned before any is changed, so a failed pin leaves the index as it
   was; a logged split whose new page then cannot be had changes nothing,
   and redoing its record splits the page then. *)
let split ctx inst no d ~mode page ~lo ~mid ~hi =
  let bp = ctx.Ctx.bp and per = dir_slots ctx in
  let ordered = match mode with Ordered -> true | Logged _ -> false in
  if ordered then ignore (Buffer_pool.flush_all bp);
  let dirs =
    List.init (((hi - 1) / per) - (mid / per) + 1) (fun i ->
        inst.dir.((mid / per) + i))
  in
  let sib =
    Buffer_pool.with_page_mut bp page (fun fr ->
        with_pages_mut bp dirs (fun dir_frames ->
            let data = fr.Buffer_pool.data in
            let src = Bytes.sub_string data 0 (used data) in
            let rec sort p stays moves =
              if p >= String.length src then (List.rev stays, List.rev moves)
              else
                let stop = entry_end src p in
                let b = entry_bucket inst src p stop in
                if d.(b) <> page then sort stop stays moves
                else if b >= mid && b < hi then
                  sort stop stays ((p, stop) :: moves)
                else sort stop ((p, stop) :: stays) moves
            in
            let stays, moves = sort header [] [] in
            (match mode with
            | Logged log ->
              log
                (enc_split ~no ~lo ~mid ~hi
                   (String.concat ""
                      (List.map
                         (fun (p, stop) -> String.sub src p (stop - p))
                         moves)))
            | Ordered -> ());
            let sib = Buffer_pool.alloc bp in
            Fun.protect
              ~finally:(fun () -> Buffer_pool.unpin ~dirty:true bp sib)
              (fun () ->
                let id = sib.Buffer_pool.page_id in
                refill data src stays;
                refill sib.Buffer_pool.data src moves;
                List.iteri
                  (fun i dfr ->
                    let base = ((mid / per) + i) * per in
                    for b = max mid base to min hi (base + per) - 1 do
                      if d.(b) = page then begin
                        set_u32 dfr.Buffer_pool.data (4 * (b - base)) id;
                        d.(b) <- id
                      end
                    done)
                  dir_frames;
                id)))
  in
  if ordered then begin
    let disk = Buffer_pool.disk bp in
    Buffer_pool.flush_page bp sib;
    Disk.sync disk;
    List.iter (Buffer_pool.flush_page bp) dirs;
    Disk.sync disk
  end

(* Split the page of logical bucket [b] in two if its run is more than one
   bucket; false when it serves [b] alone. *)
let make_room ctx inst no b ~mode =
  let d = read_dir ctx inst in
  let lo, hi = run d b in
  hi - lo > 1
  && begin
    split ctx inst no d ~mode d.(b) ~lo ~mid:((lo + hi) / 2) ~hi;
    true
  end

(* Chain a fresh overflow page holding [bytes] after [head], a full
   single-bucket page. No entry moves, so the pages may land in any order:
   a link to a page that never did names zeroes, an empty page. *)
let overflow ctx head bytes =
  let bp = ctx.Ctx.bp in
  let fr = Buffer_pool.alloc bp in
  Fun.protect
    ~finally:(fun () -> Buffer_pool.unpin ~dirty:true bp fr)
    (fun () ->
      Buffer_pool.with_page_mut bp head (fun hf ->
          let h = hf.Buffer_pool.data and data = fr.Buffer_pool.data in
          set_header data ~used:header ~count:0 ~next:(next h);
          put data bytes 0 (String.length bytes);
          set_u32 h 4 fr.Buffer_pool.page_id))

(* ---- entry images ---- *)

(* An index entry (instance, key values, record key) is the target of a
   presence image. *)
let enc_entry e (no, vals, reckey) =
  Codec.Enc.varint e no;
  Codec.Enc.record e vals;
  Record_key.enc e reckey

let dec_entry d =
  let no = Codec.Dec.varint d in
  let vals = Codec.Dec.record d in
  (no, vals, Record_key.dec d)

(* The read-modify-write of one entry, over the walk [p] of its chain. A
   removal shifts the page's tail down; an add goes to the first chain page
   with room. When there is none, the head splits while its run is more
   than one logical bucket ([mode] says how), and otherwise gains an
   overflow page. *)
let set_entry ctx inst p ((no, _, _) as entry) ~log ~mode f =
  Image.change enc_entry ~log
    ~read:(fun () -> Image.presence (p.holder <> None))
    ~write:(function
      | None -> Option.iter (remove ctx) p.holder
      | Some _ when p.room <> 0 -> append ctx p.room p.bytes
      | Some _ ->
        let limit = page_size ctx - String.length p.bytes in
        let rec grow () =
          let head = dir_entry ctx inst p.bucket in
          if
            Buffer_pool.with_page ctx.Ctx.bp head (fun fr ->
                used fr.Buffer_pool.data <= limit)
          then append ctx head p.bytes
          else if make_room ctx inst no p.bucket ~mode then grow ()
          else overflow ctx head p.bytes
        in
        grow ())
    entry f

(* Undo and redo: state-checked, logging nothing. *)
let set ctx inst ((_, vals, reckey) as entry) =
  set_entry ctx inst (probe ctx inst vals reckey) entry ~log:ignore
    ~mode:Ordered

let ( let* ) = Result.bind
let pp_key = Fmt.(array ~sep:(any ",") Value.pp)

(* Why the entry [p] of [vals] cannot be added, if it cannot. *)
let refusal ctx inst p vals =
  if inst.unique && p.dup then Some (Fmt.str "duplicate key (%a)" pp_key vals)
  else if String.length p.bytes > page_size ctx - header then
    Some
      (Fmt.str "entry of %d bytes exceeds a bucket page"
         (String.length p.bytes))
  else None

(* A forward add splits a full page before it logs its image, so redo
   meets the split record first and the add fits where it did. *)
let rec add_entry ctx (desc : Descriptor.t) name no inst vals reckey =
  let p = probe ctx inst vals reckey in
  match refusal ctx inst p vals with
  | Some reason ->
    let kind = if inst.unique then "unique hash index" else "hash index" in
    Error (Error.veto ~attachment:(Fmt.str "%s %S" kind name) reason)
  | None ->
    let log = Slot.log ctx desc in
    if
      p.holder = None && p.room = 0
      && make_room ctx inst no p.bucket ~mode:(Logged log)
    then add_entry ctx desc name no inst vals reckey
    else begin
      ignore
        (set_entry ctx inst p (no, vals, reckey) ~log ~mode:(Logged log)
           (fun _ -> Image.presence true));
      Ok ()
    end

let remove_entry ctx desc no inst vals reckey =
  let log = Slot.log ctx desc in
  ignore
    (set_entry ctx inst (probe ctx inst vals reckey) (no, vals, reckey) ~log
       ~mode:(Logged log) (fun _ -> None));
  Ok ()

(* Restart's redo of a split record. The store may hold any subset of the
   split's pages, each in any later state, and the only copy of an entry
   logged before the last checkpoint may have been on one that did not
   land. If the directory still gives [mid] to the page serving [lo], the
   split runs again. Otherwise the directory's slots of [mid, hi) that
   still name that page (a directory page that did not land) go to the
   page serving [mid], and the entries the directory gives another page
   are dropped from it. Then every moved entry missing from the index is
   added back; a later record that removed one follows in the log. *)
let redo_split ctx inst ~no ~lo ~mid ~hi moved =
  let d = read_dir ctx inst in
  let page = d.(lo) in
  if d.(mid) = page then
    split ctx inst no d ~mode:(Logged ignore) page ~lo ~mid ~hi
  else begin
    let per = dir_slots ctx and sib = d.(mid) in
    Array.iteri
      (fun i id ->
        let first = max mid (i * per) and last = min hi ((i + 1) * per) - 1 in
        let stale = List.filter (fun b -> d.(b) = page)
            (List.init (max 0 (last - first + 1)) (( + ) first))
        in
        if stale <> [] then
          Buffer_pool.with_page_mut ctx.Ctx.bp id (fun fr ->
              List.iter
                (fun b ->
                  set_u32 fr.Buffer_pool.data (4 * (b - (i * per))) sib;
                  d.(b) <- sib)
                stale))
      inst.dir;
    let src =
      Buffer_pool.with_page ctx.Ctx.bp page (fun fr ->
          Bytes.sub_string fr.Buffer_pool.data 0 (used fr.Buffer_pool.data))
    in
    let rec keep p acc =
      if p >= String.length src then List.rev acc
      else
        let stop = entry_end src p in
        keep stop
          (if d.(entry_bucket inst src p stop) = page then (p, stop) :: acc
           else acc)
    in
    let kept = keep header [] in
    if List.length kept < count (Bytes.unsafe_of_string src) then
      Buffer_pool.with_page_mut ctx.Ctx.bp page (fun fr ->
          refill fr.Buffer_pool.data src kept)
  end;
  let rec add p =
    if p < String.length moved then begin
      let stop = entry_end moved p in
      let d = Codec.Dec.of_string_span moved ~pos:p ~len:(stop - p) in
      let vals = Codec.Dec.record d in
      ignore
        (set ctx inst (no, vals, Record_key.dec d) (fun _ ->
             Image.presence true));
      add stop
    end
  in
  add 0

(* ---- layout check ---- *)

let check_invariants ctx (desc : Descriptor.t) =
  let exception Bad of string in
  let bad fmt = Fmt.kstr (fun s -> raise (Bad s)) fmt in
  let bp = ctx.Ctx.bp in
  let check name inst =
    let d = read_dir ctx inst and seen = Hashtbl.create 64 in
    (* the pages of the chain of run [lo, hi) from [page]; a page met twice
       is a loop or a page shared by two chains *)
    let rec chain ~lo ~hi pages page =
      if page = 0 then pages
      else begin
        if Hashtbl.mem seen page then
          bad "%s: page %d is reached twice (chain of %d..%d)" name page lo
            (hi - 1);
        Hashtbl.add seen page ();
        chain ~lo ~hi (pages + 1)
          (Buffer_pool.with_page bp page (fun fr ->
               let data = fr.Buffer_pool.data in
               if next data <> 0 && hi - lo > 1 then
                 bad "%s: page %d serves %d buckets and has an overflow page"
                   name page (hi - lo);
               if used data > page_size ctx then
                 bad "%s: page %d uses %d bytes" name page (used data);
               let s = Bytes.sub_string data 0 (used data) in
               let rec entries p k =
                 if p >= String.length s then k
                 else begin
                   let stop = entry_end s p in
                   let b = entry_bucket inst s p stop in
                   if b < lo || b >= hi then
                     bad "%s: an entry of bucket %d is on page %d (%d..%d)"
                       name b page lo (hi - 1);
                   entries stop (k + 1)
                 end
               in
               let k = entries header 0 in
               if k <> count data then
                 bad "%s: page %d counts %d entries and holds %d" name page
                   (count data) k;
               next data))
      end
    in
    let rec from b =
      if b >= inst.buckets then 0
      else begin
        let lo, hi = run d b in
        if not (Buffer_pool.page_live bp d.(b)) then
          bad "%s: bucket %d names page %d, which the store lacks" name b
            d.(b);
        let pages = chain ~lo ~hi 0 d.(b) in
        pages + from hi
      end
    in
    from 0
  in
  match
    List.fold_left
      (fun pages (_, name, inst) -> pages + check name inst)
      0 (Slot.of_desc desc)
  with
  | pages -> Ok pages
  | exception Bad msg -> Error msg
  | exception (Failure msg | Invalid_argument msg) -> Error msg
  | exception Error.Error e -> Error (Error.to_string e)

module Impl = struct
  let name = "hash_index"

  let attr_specs =
    [
      Attrlist.spec ~required:true "fields" Attrlist.A_string;
      Attrlist.spec "unique" Attrlist.A_bool;
      Attrlist.spec "buckets" Attrlist.A_int;
    ]

  let buckets_attr attrs =
    match Attrlist.get_int attrs "buckets" with
    | Ok None -> Ok 16
    | Ok (Some n) when n >= 1 && n <= max_buckets -> Ok n
    | Ok (Some n) ->
      Error
        (Error.Ddl_error
           (Fmt.str "hash index buckets must be in 1..%d, got %d" max_buckets
              n))
    | Error e -> Error (Error.Ddl_error e)

  (* A fresh index: one bucket page covering every logical bucket, and the
     directory pages naming it. *)
  let create_pages ctx n =
    let bp = ctx.Ctx.bp and per = dir_slots ctx in
    let fr = Buffer_pool.alloc bp in
    let page = fr.Buffer_pool.page_id in
    set_header fr.Buffer_pool.data ~used:header ~count:0 ~next:0;
    Buffer_pool.unpin ~dirty:true bp fr;
    Array.init ((n + per - 1) / per) (fun i ->
        let fr = Buffer_pool.alloc bp in
        for b = i * per to min n ((i + 1) * per) - 1 do
          set_u32 fr.Buffer_pool.data (4 * (b - (i * per))) page
        done;
        Buffer_pool.unpin ~dirty:true bp fr;
        fr.Buffer_pool.page_id)

  let create_instance ctx (desc : Descriptor.t) ~instance_name attrs =
    Slot.add desc ~instance_name ~what:"hash index" (fun () ->
        match
          Attach_util.parse_fields desc.schema
            (Option.get (Attrlist.find attrs "fields"))
        with
        | Error e -> Error (Error.Ddl_error e)
        | Ok fields ->
          let* buckets = buckets_attr attrs in
          let unique =
            match Attrlist.get_bool attrs "unique" with
            | Ok (Some b) -> b
            | Ok None | Error _ -> false
          in
          let inst =
            { fields; unique; buckets; dir = create_pages ctx buckets }
          in
          let refused = ref None in
          Attach_util.scan_relation ctx desc (fun reckey record ->
              if !refused = None then
                let vals = Record.project record fields in
                let p = probe ctx inst vals reckey in
                match refusal ctx inst p vals with
                | Some reason -> refused := Some reason
                | None ->
                  (* unlogged build: the target's instance number is moot *)
                  ignore
                    (set_entry ctx inst p (0, vals, reckey) ~log:ignore
                       ~mode:(Logged ignore) (fun _ -> Image.presence true)));
          match !refused with
          | Some reason ->
            Error
              (Error.Constraint_violation ("existing records: " ^ reason))
          | None -> Ok inst)

  let drop_instance _ctx = Slot.drop_instance

  let on_insert ctx desc ~slot reckey record =
    Slot.each slot (fun no name inst ->
        add_entry ctx desc name no inst (Record.project record inst.fields)
          reckey)

  let on_delete ctx desc ~slot reckey record =
    Slot.each slot (fun no _name inst ->
        remove_entry ctx desc no inst (Record.project record inst.fields)
          reckey)

  let on_update ctx desc ~slot ~old_key ~new_key ~old_record ~new_record =
    Slot.each slot (fun no name inst ->
        if
          Record.compare_on inst.fields old_record new_record = 0
          && Record_key.equal old_key new_key
        then Ok ()
        else
          let* () =
            remove_entry ctx desc no inst
              (Record.project old_record inst.fields)
              old_key
          in
          add_entry ctx desc name no inst
            (Record.project new_record inst.fields)
            new_key)

  let lookup ctx desc ~slot ~instance ~key =
    ignore desc;
    match Slot.by_no slot instance with
    | None -> []
    | Some inst -> find_keys ctx inst key

  let scan _ctx _desc ~slot:_ ~instance:_ ?lo:_ ?hi:_ () = None

  let estimate ctx (desc : Descriptor.t) ~slot ~eligible =
    ignore desc;
    let pred = Dmx_expr.Analyze.conjoin eligible in
    List.filter_map
      (fun (no, _name, inst) ->
        match pred with
        | None -> None
        | Some p ->
          let m =
            Dmx_expr.Analyze.match_key ~key_fields:inst.fields p
          in
          (* A hash access path is relevant only when every hashed field is
             bound by equality. *)
          if m.eq_prefix < Array.length inst.fields then None
          else begin
            (* Index dip: with constant key values, count the actual
               matches in the bucket chain. *)
            let est_rows =
              match
                Dmx_expr.Analyze.key_range ~key_fields:inst.fields p
              with
              | Some (eq, _) when Array.length eq = Array.length inst.fields ->
                float_of_int (max 1 (List.length (find_keys ctx inst eq)))
              | _ -> if inst.unique then 1.0 else 2.0
            in
            Some
              {
                Intf.ac_instance = no;
                ac_key_fields = Some inst.fields;
                ac_spatial_rect = None;
                ac_estimate =
                  {
                    Cost.cost = Cost.make ~io:1.2 ~cpu:4.;
                    est_rows;
                    matched = m.matched;
                    residual = m.residual;
                    ordered_by = None;
                  };
              }
          end)
      (Slot.decode slot)

  (* The directory of an index whose creation never reached the store holds
     nothing to undo or redo. A lost bucket page is allocated again by the
     re-run change. *)
  let dir_live ctx inst =
    Array.for_all (Buffer_pool.page_live ctx.Ctx.bp) inst.dir

  (* A split is never undone: the entries it moved stay where they went. *)
  let undo ctx ~rel_id ~data =
    if not (is_split data) then begin
      let img = Image.decode dec_entry data in
      let no, _, _ = img.target in
      match Slot.in_catalog ctx ~rel_id no with
      | Some inst when dir_live ctx inst ->
        ignore (Image.undo img ~set:(set ctx inst img.target))
      | Some _ | None -> ()
    end

  let redo ctx ~rel_id ~data =
    if is_split data then begin
      let no, lo, mid, hi, moved = dec_split data in
      match Slot.in_catalog ctx ~rel_id no with
      | Some inst when dir_live ctx inst ->
        redo_split ctx inst ~no ~lo ~mid ~hi moved
      | Some _ | None -> ()
    end
    else begin
      let img = Image.decode dec_entry data in
      let no, _, _ = img.target in
      match Slot.in_catalog ctx ~rel_id no with
      | Some inst
        when dir_live ctx inst
             && Image.redo img ~set:(set ctx inst img.target) ->
        Ctx.applied ctx
      | Some _ | None -> ()
    end
end

include Impl

let register () =
  Slot.register ~redo:Impl.redo
    (module Impl : Intf.ATTACHMENT)
