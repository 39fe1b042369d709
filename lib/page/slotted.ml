(* Layout (little-endian u16s):
     [0..1]   slot count
     [2..3]   data start (lowest payload offset; free space ends here)
     [4..]    slot directory: per slot (offset u16, length u16)
   Payloads are packed from the page end downward. A tombstone has
   offset = 0xffff. *)

type slot = int

let dead = 0xffff
let header_size = 4
let slot_size = 4

let get16 page off = Char.code (Bytes.get page off) lor (Char.code (Bytes.get page (off + 1)) lsl 8)

let set16 page off v =
  Bytes.set page off (Char.chr (v land 0xff));
  Bytes.set page (off + 1) (Char.chr ((v lsr 8) land 0xff))

let slot_count page = get16 page 0
let data_start page = get16 page 2
let set_slot_count page n = set16 page 0 n
let set_data_start page off = set16 page 2 off

let slot_off _page s = header_size + (s * slot_size)

(* The loops over every slot read the two fields apart: a pair returned
   per slot would allocate. *)
let entry_off page s = get16 page (slot_off page s)
let entry_len page s = get16 page (slot_off page s + 2)
let slot_entry page s = (entry_off page s, entry_len page s)

let set_slot_entry page s ~off ~len =
  set16 page (slot_off page s) off;
  set16 page (slot_off page s + 2) len

let init page =
  set_slot_count page 0;
  set_data_start page (Bytes.length page)

let formatted page = data_start page <> 0

let live_count page =
  let n = slot_count page in
  let rec loop i acc =
    if i >= n then acc
    else
      loop (i + 1) (if entry_off page i = dead then acc else acc + 1)
  in
  loop 0 0

let dir_end page = header_size + (slot_count page * slot_size)
let max_payload page_size = page_size - header_size - slot_size

let read page s =
  if s < 0 || s >= slot_count page then None
  else
    let off, len = slot_entry page s in
    if off = dead then None else Some (Bytes.sub_string page off len)

let payload_span page s =
  if s < 0 || s >= slot_count page then None
  else
    let off, len = slot_entry page s in
    if off = dead then None else Some (off, len)

(* Rewrite all live payloads packed against the page end, fixing offsets.
   Reclaims space left by deletes and shrinking updates. *)
let compact page =
  let n = slot_count page in
  let live = ref [] in
  for s = 0 to n - 1 do
    let off, len = slot_entry page s in
    if off <> dead then live := (s, Bytes.sub page off len) :: !live
  done;
  let pos = ref (Bytes.length page) in
  (* !live is in descending slot order; packing order is irrelevant. *)
  List.iter
    (fun (s, payload) ->
      let len = Bytes.length payload in
      pos := !pos - len;
      Bytes.blit payload 0 page !pos len;
      set_slot_entry page s ~off:!pos ~len)
    !live;
  set_data_start page !pos

(* Tombstone states: (dead, 1) = pending (not reusable yet), (dead, 0) =
   released. Only released tombstones are candidates for reuse. *)
let find_dead_slot page =
  let n = slot_count page in
  let rec loop s =
    if s >= n then None
    else if entry_off page s = dead && entry_len page s = 0 then Some s
    else loop (s + 1)
  in
  loop 0

let next_slot page =
  match find_dead_slot page with Some s -> s | None -> slot_count page

let garbage page =
  let n = slot_count page in
  let used = ref 0 in
  for s = 0 to n - 1 do
    if entry_off page s <> dead then used := !used + entry_len page s
  done;
  Bytes.length page - data_start page - !used

(* Contiguous room for one more insert, less what of [reserved] garbage
   cannot cover: a compaction would have merged it into this room. *)
let free_space ?(reserved = 0) page =
  let short = if reserved > 0 then max 0 (reserved - garbage page) else 0 in
  max 0 (data_start page - dir_end page - slot_size - short)

let delete page s =
  if s < 0 || s >= slot_count page then false
  else
    let off, len = slot_entry page s in
    if off = dead then false
    else begin
      set_slot_entry page s ~off:dead ~len:1;
      ignore len;
      true
    end

let make_reusable page s =
  if s >= 0 && s < slot_count page then begin
    let off, _ = slot_entry page s in
    if off = dead then set_slot_entry page s ~off:dead ~len:0
  end

(* The released tombstones after slot [s] that end the directory. An
   undone insert into a fresh slot leaves one there; a write to [s] that
   lacks room takes their directory bytes back ([trim]), so undo finds the
   room the page had before that insert. *)
let released_tail page s =
  let n = slot_count page in
  let rec first i =
    if i > s + 1 && entry_off page (i - 1) = dead && entry_len page (i - 1) = 0
    then first (i - 1)
    else i
  in
  n - first n

let trim page s = set_slot_count page (slot_count page - released_tail page s)

let insert_at page s payload =
  let n = slot_count page in
  if s < 0 || s > n || (s < n && fst (slot_entry page s) <> dead) then false
  else begin
    let len = String.length payload in
    let dir_cost = if s = n then slot_size else 0 in
    let room () = data_start page - dir_end page - dir_cost in
    if room () < len then trim page s;
    if room () < len && garbage page > 0 then compact page;
    if room () < len then false
    else begin
      let off = data_start page - len in
      Bytes.blit_string payload 0 page off len;
      set_data_start page off;
      if s = n then set_slot_count page (n + 1);
      set_slot_entry page s ~off ~len;
      true
    end
  end

let insert page payload =
  let s = next_slot page in
  if insert_at page s payload then Some s else None

let update page s payload =
  if s < 0 || s >= slot_count page then false
  else
    let off, len = slot_entry page s in
    if off = dead then false
    else
      let new_len = String.length payload in
      if new_len <= len then begin
        (* Shrink or same-size: overwrite in place. *)
        let off = off + len - new_len in
        Bytes.blit_string payload 0 page off new_len;
        set_slot_entry page s ~off ~len:new_len;
        true
      end
      else begin
        (* Grow: tombstone, reclaim, reinsert into the same slot. The original
           payload is saved so a failed grow restores the record. *)
        let original = Bytes.sub_string page off len in
        set_slot_entry page s ~off:dead ~len:0;
        compact page;
        let put data =
          let n = String.length data in
          let off = data_start page - n in
          Bytes.blit_string data 0 page off n;
          set_data_start page off;
          set_slot_entry page s ~off ~len:n
        in
        let room () = data_start page - dir_end page in
        if room () < new_len then trim page s;
        if room () < new_len then begin
          put original;
          false
        end
        else begin
          put payload;
          true
        end
      end

let fits ?(reserved = 0) page s payload =
  let n = slot_count page in
  let held = match payload_span page s with Some (_, len) -> len | None -> 0 in
  let room =
    data_start page - dir_end page - (if s = n then slot_size else 0) + held
    + (slot_size * released_tail page s)
  in
  let len = String.length payload in
  s >= 0 && s <= n && (len <= held || len <= room + garbage page - reserved)

let set page s = function
  | None -> delete page s
  | Some payload ->
    if payload_span page s <> None then update page s payload
    else insert_at page s payload

let iter page f =
  let n = slot_count page in
  for s = 0 to n - 1 do
    match read page s with None -> () | Some payload -> f s payload
  done
