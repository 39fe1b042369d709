open Dmx_value
open Dmx_page

type node =
  | Leaf of { entries : (Value.t array * string) list; next : int }
  | Internal of { seps : Value.t array list; children : int list }
      (* |children| = |seps| + 1; child i holds keys < seps.(i) and
         >= seps.(i-1) *)

type t = {
  bp : Buffer_pool.t;
  root : int;
}

(* ---- key comparison ---- *)

let compare_full a b =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la || i >= lb then Int.compare la lb
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

(* Prefix semantics: equal up to the shorter length compares equal. *)
let compare_prefix a b =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la || i >= lb then 0
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

(* [compare_full] ([compare_prefix] when [prefix]) of the key encoded at
   [d] against [key], consuming the encoded key without decoding it. *)
let compare_encoded ~prefix d key =
  let la = Codec.Dec.varint d and lb = Array.length key in
  let c = ref 0 in
  for i = 0 to la - 1 do
    if !c = 0 && i < lb then c := Codec.Dec.compare_value d key.(i)
    else Codec.Dec.skip_value d
  done;
  if !c <> 0 || prefix then !c else Int.compare la lb

(* ---- node layout ---- *)

(* A node page is a [header], then one 2-byte entry offset per entry in key
   order, then the entries in key order, then free space up to the page's
   last [trailer] bytes, which no node reaches (on the root they hold the
   tree's advisory count). The header holds the entry count (bytes 0-1),
   the tag (byte 2), the end of the content area (bytes 3-4) and a page
   link (bytes 5-8): a leaf's right neighbour, an internal node's leftmost
   child. A leaf entry is a key record and its payload string; an internal
   entry is a separator record and the child to its right, so child [i]
   holds keys at or above separator [i-1] and below separator [i].
   Searches binary-search the offsets in the pinned frame.

   A node's bytes are a prefix of its page, so a write torn after the
   first half-page still lands a node that fits in that half whole, as
   with the previous format (a length, then a tag and varint-counted
   lists). The tag sits where that format kept its own, so a page of it
   reads as tag 0 or 1 and is refused by name. *)

let trailer = 8
let header = 9
let leaf_tag = 0x4c (* 'L' *)
let internal_tag = 0x49 (* 'I' *)

let corrupt page_id fmt =
  Fmt.kstr (fun s -> failwith (Fmt.str "Btree: page %d: %s" page_id s)) fmt

(* A node image in a pinned frame. The view is read-only and dies with the
   unpin, so readers copy out (decode) only what they return. *)
type view = {
  page_id : int;
  buf : bytes;
  d : Codec.Dec.t;  (* over the page up to its trailer *)
  leaf : bool;
  n : int;  (* entries *)
  stop : int;  (* end of the content area *)
  link : int;
}

let view page_id buf =
  let limit = Bytes.length buf - trailer in
  let tag = Bytes.get_uint8 buf 2 in
  if tag <> leaf_tag && tag <> internal_tag then
    if tag <= 1 then corrupt page_id "old-format or blank node (tag %d)" tag
    else corrupt page_id "bad node tag %d" tag;
  let n = Bytes.get_uint16_le buf 0 and stop = Bytes.get_uint16_le buf 3 in
  if stop < header + (2 * n) || stop > limit then
    corrupt page_id "content end %d outside [%d, %d] for %d entries" stop
      (header + (2 * n)) limit n;
  {
    page_id;
    buf;
    d = Codec.Dec.of_string_span (Bytes.unsafe_to_string buf) ~pos:0 ~len:stop;
    leaf = tag = leaf_tag;
    n;
    stop;
    link = Int32.to_int (Bytes.get_int32_le buf 5) land 0xffff_ffff;
  }

(* Put the view's decoder on entry [i], [0 <= i < v.n]. *)
let seek_entry v i =
  let o = Bytes.get_uint16_le v.buf (header + (2 * i)) in
  if o < header + (2 * v.n) || o >= v.stop then
    corrupt v.page_id
      "entry %d at offset %d, outside the content area [%d, %d)" i o
      (header + (2 * v.n)) v.stop;
  Codec.Dec.seek v.d o

let leaf_entry d =
  let k = Codec.Dec.record d in
  (k, Codec.Dec.string d)

let internal_entry d =
  let sep = Codec.Dec.record d in
  (sep, Codec.Dec.varint d)

let entries v read =
  List.init v.n (fun i ->
      seek_entry v i;
      read v.d)

let leaf_entries v = entries v leaf_entry

let decode v =
  if v.leaf then Leaf { entries = leaf_entries v; next = v.link }
  else
    let seps, children = List.split (entries v internal_entry) in
    Internal { seps; children = v.link :: children }

let with_view t page_id f =
  Buffer_pool.with_page t.bp page_id (fun frame ->
      f (view page_id frame.Buffer_pool.data))

let read_node t page_id = with_view t page_id decode

(* A node encoded for a page: its header's tag and link ([first]), and its
   entries back to back in [body], entry [i] at [offs.(i)] within it. *)
type image = { tag : int; first : int; body : Codec.Enc.t; offs : int array }

let encode node =
  let body = Codec.Enc.create ~size:1024 () in
  let put enc items =
    Array.of_list
      (List.map
         (fun item ->
           let o = Codec.Enc.length body in
           enc item;
           o)
         items)
  in
  match node with
  | Leaf { entries; next } ->
    let offs =
      put
        (fun (k, p) ->
          Codec.Enc.record body k;
          Codec.Enc.string body p)
        entries
    in
    { tag = leaf_tag; first = next; body; offs }
  | Internal { seps; children = first :: rest } ->
    let offs =
      put
        (fun (sep, child) ->
          Codec.Enc.record body sep;
          Codec.Enc.varint body child)
        (List.combine seps rest)
    in
    { tag = internal_tag; first; body; offs }
  | Internal { children = []; _ } ->
    invalid_arg "Btree: internal node without children"

let image_size img =
  header + (2 * Array.length img.offs) + Codec.Enc.length img.body

(* Lay [img] over page image [buf], up to its trailer, zeroing the free
   space. *)
let write_image buf img =
  let limit = Bytes.length buf - trailer in
  let start = header + (2 * Array.length img.offs) in
  let stop = start + Codec.Enc.length img.body in
  if stop > limit then failwith "Btree: node exceeds page size";
  if limit > 0xffff || img.first > 0xffff_ffff then
    failwith "Btree: page size or page id beyond the node format";
  Bytes.set_uint16_le buf 0 (Array.length img.offs);
  Bytes.set_uint8 buf 2 img.tag;
  Bytes.set_uint16_le buf 3 stop;
  Bytes.set_int32_le buf 5 (Int32.of_int img.first);
  Array.iteri
    (fun i o -> Bytes.set_uint16_le buf (header + (2 * i)) (start + o))
    img.offs;
  Codec.Enc.blit img.body buf start;
  Bytes.fill buf stop (limit - stop) '\000'

let write t page_id img =
  Buffer_pool.with_page_mut t.bp page_id (fun frame ->
      write_image frame.Buffer_pool.data img)

let write_node t page_id node = write t page_id (encode node)

let decode_page ~page_id buf = decode (view page_id buf)
let encode_page buf node = write_image buf (encode node)

(* The bytes a node may use: the page up to its trailer. *)
let capacity t = Disk.page_size (Buffer_pool.disk t.bp) - trailer

(* ---- construction ---- *)

let create bp =
  let frame = Buffer_pool.alloc bp in
  let t = { bp; root = frame.Buffer_pool.page_id } in
  Buffer_pool.unpin ~dirty:true bp frame;
  write_node t t.root (Leaf { entries = []; next = 0 });
  t

let open_tree bp ~root = { bp; root }
let root t = t.root

let advisory_count t =
  Buffer_pool.with_page t.bp t.root (fun frame ->
      let d = frame.Buffer_pool.data in
      Int64.to_int (Bytes.get_int64_le d (Bytes.length d - trailer)))

let add_advisory_count t delta =
  Buffer_pool.with_page_mut t.bp t.root (fun frame ->
      let d = frame.Buffer_pool.data in
      let at = Bytes.length d - trailer in
      let n = Int64.to_int (Bytes.get_int64_le d at) in
      Bytes.set_int64_le d at (Int64.of_int (max 0 (n + delta))))

let alloc_page t =
  let frame = Buffer_pool.alloc t.bp in
  let id = frame.Buffer_pool.page_id in
  Buffer_pool.unpin ~dirty:true t.bp frame;
  id

(* ---- search ---- *)

(* Key compares the searches make, one [Metrics.add] per node searched. *)
let compares = Dmx_obs.Metrics.counter "btree.compares"

let compare_at v ~prefix i key =
  seek_entry v i;
  compare_encoded ~prefix v.d key

let rec bsearch v ~prefix ~strict key lo hi steps =
  if lo >= hi then begin
    Dmx_obs.Metrics.add compares steps;
    lo
  end
  else
    let mid = (lo + hi) lsr 1 in
    let c = compare_at v ~prefix mid key in
    if c < 0 || (strict && c = 0) then
      bsearch v ~prefix ~strict key (mid + 1) hi (steps + 1)
    else bsearch v ~prefix ~strict key lo mid (steps + 1)

(* The first entry of [v] whose key is at or above [key] (strictly above
   when [strict]) by [compare_full] ([compare_prefix] when [prefix]);
   [v.n] when there is none. At most ceil(log2 (n + 1)) compares. *)
let search v ~prefix ~strict key = bsearch v ~prefix ~strict key 0 v.n 0

(* In internal node [v]: the index and page of the child covering [key]
   (the leftmost for [None]), after the last separator at or below it. *)
let child_at v key =
  match key with
  | None -> (0, v.link)
  | Some k ->
    let i = search v ~prefix:false ~strict:true k in
    if i = 0 then (0, v.link)
    else begin
      seek_entry v (i - 1);
      Codec.Dec.skip_record v.d;
      (i, Codec.Dec.varint v.d)
    end

(* Walk from [from] to the leaf covering [key] ([None]: the leftmost),
   pinning each node once and choosing children in place; [leaf v] runs
   with the leaf pinned. Returns its result and the path above the leaf —
   (page id, index of the child taken), innermost first. *)
let descend ?from t key leaf =
  let rec go page_id path =
    match
      with_view t page_id (fun v ->
          if v.leaf then Either.Left (leaf v)
          else Either.Right (child_at v key))
    with
    | Either.Left r -> (r, path)
    | Either.Right (i, child) -> go child ((page_id, i) :: path)
  in
  go (Option.value from ~default:t.root) []

let find t ~key =
  fst
    (descend t (Some key) (fun v ->
         let i = search v ~prefix:false ~strict:false key in
         if i < v.n && compare_at v ~prefix:false i key = 0 then
           Some (Codec.Dec.string v.d)
         else None))

(* ---- leaf writes and splits ---- *)

(* Split a list of entries at roughly half the encoded size: before the
   entry that takes the left half to half the total, or after it when the
   right half would otherwise exceed [limit] (a large entry there). *)
let split_entries ~limit entries size_of =
  let total = List.fold_left (fun acc e -> acc + size_of e) 0 entries in
  let rec loop acc_size left = function
    | [] -> (List.rev left, [])
    | [ last ] ->
      if left = [] then ([ last ], []) else (List.rev left, [ last ])
    | e :: rest ->
      let acc_size = acc_size + size_of e in
      if acc_size * 2 >= total && left <> [] then
        if total - acc_size + size_of e > limit then
          (List.rev (e :: left), rest)
        else (List.rev left, e :: rest)
      else loop acc_size (e :: left) rest
  in
  loop 0 [] entries

let varint_size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let record_size k = Bytes.length (Codec.encode_record k)

let payload_size p = varint_size (String.length p) + String.length p

(* What a leaf entry adds to its node: its offset and its bytes. *)
let entry_size (k, p) = 2 + record_size k + payload_size p

(* Write a leaf's new entries, splitting it (and, through [promote], its
   ancestors on [path]) when they overflow the page. [appended]: the last
   entry is new and above every old one. The rightmost leaf then splits at
   its edge, keeping the old entries whole, so an ascending load fills its
   pages. *)
let rec write_leaf ?(appended = false) t page_id path entries next =
  let img = encode (Leaf { entries; next }) in
  if image_size img <= capacity t then write t page_id img
  else begin
    let limit = capacity t - header in
    let left, right =
      if appended && next = 0 then
        match List.rev entries with
        | last :: (_ :: _ as rest) -> (List.rev rest, [ last ])
        | _ -> split_entries ~limit entries entry_size
      else split_entries ~limit entries entry_size
    in
    match right with
    | [] -> failwith "Btree: cannot split a single oversized entry"
    | (sep, _) :: _ ->
      let right_id = alloc_page t in
      write_node t right_id (Leaf { entries = right; next });
      write_node t page_id (Leaf { entries = left; next = right_id });
      promote t path sep right_id
  end

(* Insert separator [sep] with [new_child] to its right into the parent on
   top of [path]. The root page id never changes: on root split, move the
   left half to a fresh page and make the root an internal node over both
   halves. *)
and promote t path sep new_child =
  match path with
  | [] ->
    let left_id = alloc_page t in
    write_node t left_id (read_node t t.root);
    write_node t t.root
      (Internal { seps = [ sep ]; children = [ left_id; new_child ] })
  | (page_id, i) :: up ->
    let seps, children =
      match read_node t page_id with
      | Internal { seps; children } -> (seps, children)
      | Leaf _ -> failwith "Btree: path hit a leaf"
    in
    let seps =
      List.filteri (fun j _ -> j < i) seps
      @ [ sep ]
      @ List.filteri (fun j _ -> j >= i) seps
    in
    let children =
      List.filteri (fun j _ -> j <= i) children
      @ [ new_child ]
      @ List.filteri (fun j _ -> j > i) children
    in
    let img = encode (Internal { seps; children }) in
    if image_size img <= capacity t then write t page_id img
    else begin
      (* Split the internal node: promote the middle separator. *)
      let m = List.length seps / 2 in
      let promoted = List.nth seps m in
      let right_id = alloc_page t in
      write_node t right_id
        (Internal
           {
             seps = List.filteri (fun j _ -> j > m) seps;
             children = List.filteri (fun j _ -> j > m) children;
           });
      write_node t page_id
        (Internal
           {
             seps = List.filteri (fun j _ -> j < m) seps;
             children = List.filteri (fun j _ -> j <= m) children;
           });
      promote t up promoted right_id
    end

(* ---- change images ---- *)

type change = (int * Value.t array) Image.t

let enc_target e (root, key) =
  Codec.Enc.varint e root;
  Codec.Enc.record e key

let dec_target d =
  let root = Codec.Dec.varint d in
  (root, Codec.Dec.record d)

(* ---- iteration ---- *)

let chain_leaf v =
  if not v.leaf then failwith "Btree: leaf chain hit an internal node"

let iter t f =
  let rec walk page_id =
    if page_id <> 0 then begin
      let entries, next =
        with_view t page_id (fun v ->
            chain_leaf v;
            (leaf_entries v, v.link))
      in
      List.iter (fun (k, p) -> f k p) entries;
      walk next
    end
  in
  walk (fst (descend t None (fun v -> v.page_id)))

(* Each leaf's entry count, read from its header. *)
let count t =
  let rec walk page_id acc =
    if page_id = 0 then acc
    else
      let n, next =
        with_view t page_id (fun v ->
            chain_leaf v;
            (v.n, v.link))
      in
      walk next (acc + n)
  in
  walk (fst (descend t None (fun v -> v.page_id))) 0

let height t = List.length (snd (descend t None (fun _ -> ()))) + 1

(* ---- cursors ---- *)

type bound = Value.key_bound =
  | Incl of Value.t array
  | Excl of Value.t array
  | Unbounded

type cursor = {
  tree : t;
  lo : bound;
  hi : bound;
  mutable last : Value.t array option;  (* key the cursor is "on" *)
  mutable finished : bool;
  mutable leaf_hint : int;
      (* leaf page where the last key was found. Valid as long as the page is
         still a leaf: leaf ranges never extend downward (splits move upper
         halves right, deletion is lazy), so the first key greater than
         [last] lies in this leaf or further along the chain. Only the root
         turns from leaf to internal, and a descent from the root is what a
         stale hint needs. *)
}

let cursor ?(lo = Unbounded) ?(hi = Unbounded) t =
  { tree = t; lo; hi; last = None; finished = false; leaf_hint = 0 }

(* The first entry of leaf [v] the cursor admits: strictly after its
   position, or within [lo] on the first step. *)
let first_admitted c v =
  match c.last, c.lo with
  | Some k, _ -> search v ~prefix:false ~strict:true k
  | None, Unbounded -> 0
  | None, Incl b -> search v ~prefix:true ~strict:false b
  | None, Excl b -> search v ~prefix:true ~strict:true b

(* Whether entry [i] of [v] is within [hi]. *)
let below_hi hi v i =
  match hi with
  | Unbounded -> true
  | Incl b | Excl b ->
    Dmx_obs.Metrics.incr compares;
    let c = compare_at v ~prefix:true i b in
    (match hi with Incl _ -> c <= 0 | _ -> c < 0)

type 'a found = Found of 'a | Skip of int  (* next leaf *)

(* One cursor step: find the first entry after the cursor position in the
   hinted leaf (or by descent on the first step, after [seek], or when the
   root split under the hint) and along the chain from there, pinning each
   leaf once. [f v i] runs in the pinned leaf [v] with [i] that entry's
   index, so sequential access costs O(1) amortized pins. *)
let step c f =
  let t = c.tree in
  let scan v =
    let i = first_admitted c v in
    if i < v.n then begin
      c.leaf_hint <- v.page_id;
      Found (f v i)
    end
    else Skip v.link
  in
  let rec along = function
    | Found r -> Some r
    | Skip 0 -> None
    | Skip page_id ->
      along
        (with_view t page_id (fun v ->
             chain_leaf v;
             scan v))
  in
  let key =
    match c.last, c.lo with
    | (Some _ as k), _ -> k
    | None, Unbounded -> None
    | None, (Incl b | Excl b) -> Some b
  in
  let from = if c.leaf_hint = 0 then t.root else c.leaf_hint in
  along (fst (descend ~from t key scan))

let entry_at v i =
  seek_entry v i;
  leaf_entry v.d

let next c =
  if c.finished then None
  else
    let first v i = if below_hi c.hi v i then Some (entry_at v i) else None in
    match step c first with
    | Some (Some ((k, _) as e)) ->
      c.last <- Some k;
      Some e
    | Some None | None ->
      c.finished <- true;
      None

(* Deliver every remaining in-window entry of the next leaf as one run; the
   cursor ends up on the run's last key, so a [seek] to a captured position
   between runs re-enters exactly after it. Entries after the first admitted
   one are admitted too (leaves are sorted), so only [hi] is tested, in
   place. *)
let next_run c =
  if c.finished then None
  else
    let run v i =
      let rec take j acc =
        if j = v.n then acc
        else if below_hi c.hi v j then take (j + 1) (entry_at v j :: acc)
        else begin
          c.finished <- true;
          acc
        end
      in
      take i []
    in
    match step c run with
    | Some ((k, _) :: _ as rev_run) ->
      c.last <- Some k;
      Some (Array.of_list (List.rev rev_run))
    | Some [] | None ->
      c.finished <- true;
      None

let position c = c.last

let seek c pos =
  c.last <- pos;
  c.finished <- false;
  c.leaf_hint <- 0

(* ---- writes ---- *)

(* The key window of the leaf below [path] (as {!descend} returns it): the
   nearest ancestor separators below (inclusive) and above (exclusive), None
   at the tree's edges. Pins each ancestor at most once, innermost first,
   and decodes only the separators it returns. *)
let window_of_path t path =
  let rec up lo hi = function
    | (page_id, i) :: rest when Option.is_none lo || Option.is_none hi ->
      let lo, hi =
        with_view t page_id (fun v ->
            let sep j =
              seek_entry v j;
              Some (Codec.Dec.record v.d)
            in
            ( (if i > 0 && Option.is_none lo then sep (i - 1) else lo),
              if i < v.n && Option.is_none hi then sep i else hi ))
      in
      up lo hi rest
    | _ -> (lo, hi)
  in
  up None None path

let window t key = window_of_path t (snd (descend t (Some key) ignore))

(* Equality on the first [p] key values (the unique-index field prefix). *)
let equal_on p a b =
  let rec loop j = j >= p || (Value.compare a.(j) b.(j) = 0 && loop (j + 1)) in
  Array.length a >= p && Array.length b >= p && loop 0

let prefix_present t prefix =
  let c = cursor ~lo:(Incl prefix) ~hi:(Incl prefix) t in
  next c <> None

(* Whether [key]'s first [p] values are held beside its place in a leaf:
   by [prev], the entry before it, or [next], the entry after it, each
   [None] at the leaf's edge. Keys sharing a prefix are contiguous in key
   order, so a holder past the edge lies beyond the leaf's [window], and the
   separator there shares the prefix too: only then is the tree probed. *)
let prefix_held t p ~window key ~prev ~next =
  let eq k = equal_on p k key in
  let beside entry edge =
    match entry with
    | Some k -> eq k
    | None -> (
      match edge (Lazy.force window) with
      | Some s when eq s -> prefix_present t (Array.sub key 0 p)
      | _ -> false)
  in
  beside prev fst || beside next snd

(* What binding [key] to [after] instead of [held] adds to a leaf. *)
let size_change key held after =
  let entry = function Some p -> entry_size (key, p) | None -> 0 in
  match held, after with
  | Some a, Some b -> payload_size b - payload_size a
  | _ -> entry after - entry held

let first_key = function (k, _) :: _ -> Some k | [] -> None

(* A leaf being merged is [acc], its entries below the edit at hand, last
   first, and [rest], the old entries above them. [take key acc rest] moves
   the entries below [key] onto [acc] and takes out the payload [key]
   holds: from [rest], or from the head of [acc] when an earlier edit of
   the run bound it. *)
let take key acc rest =
  let rec seek acc = function
    | ((k, p) as e) :: tl as rest ->
      let c = compare_full k key in
      if c < 0 then seek (e :: acc) tl
      else if c = 0 then (Some p, acc, tl)
      else below acc rest
    | [] -> below acc []
  and below acc rest =
    match acc with
    | (k, p) :: tl when compare_full k key = 0 -> (Some p, tl, rest)
    | _ -> (None, acc, rest)
  in
  seek acc rest

(* The one writer of leaf entries. Edit [i] of [n] binds [key i] (the
   keys ascending) to [edit i held], [held] being the payload the key holds
   ([None] removes the key); edits given as functions of [i] cost no
   allocation to describe. Each run of edits landing in one leaf costs one
   descent and one decode: the run is merged into the leaf's entries in a
   single pass, its changes go to [log], and only then is the leaf written,
   once. A run ends at the leaf's key window, read only when a further edit
   follows, and before an edit that would overflow the leaf; an edit that
   overflows it alone is written by [write_leaf], which splits. An edit
   that changes nothing logs and writes nothing. Under [unique_prefix:p] an
   edit whose key's first [p] values are held halts the walk with [Error
   j]: edits before [j] are applied, [j] and later are not. A key of more
   than [p] values is checked by {!prefix_held}; one of at most [p] is held
   only by itself, since a tree's keys have one arity. *)
let walk_edits ?unique_prefix t ~log n ~key:key_of ~edit =
  let cap = capacity t in
  let rec runs i =
    if i >= n then Ok ()
    else begin
      let (leaf_id, entries, next, used), path =
        descend t (Some (key_of i)) (fun v ->
            (v.page_id, leaf_entries v, v.link, v.stop))
      in
      let window = lazy (window_of_path t path) in
      let past_window key =
        match snd (Lazy.force window) with
        | Some hi -> compare_full key hi >= 0
        | None -> false
      in
      let finish ?(appended = false) acc rest changes =
        if changes <> [] then begin
          log (List.rev changes);
          write_leaf ~appended t leaf_id path (List.rev_append acc rest) next
        end
      in
      (* [changes]: the run's, last first *)
      let rec merge j acc rest used changes =
        if j >= n || (j > i && past_window (key_of j)) then begin
          finish acc rest changes;
          runs j
        end
        else
          let key = key_of j in
          let held, acc, rest = take key acc rest in
          let bind p acc =
            match p with Some p -> (key, p) :: acc | None -> acc
          in
          let vetoed =
            match unique_prefix with
            | None -> false
            | Some p ->
              held <> None
              || Array.length key > p
                 && prefix_held t p ~window key ~prev:(first_key acc)
                      ~next:(first_key rest)
          in
          if vetoed then begin
            finish (bind held acc) rest changes;
            Error j
          end
          else
            let after = edit j held in
            if Option.equal String.equal held after then
              merge (j + 1) (bind held acc) rest used changes
            else
              let used = used + size_change key held after in
              if used > cap && changes <> [] then begin
                finish (bind held acc) rest changes;
                runs j
              end
              else
                let changes =
                  Image.encode enc_target
                    { target = (t.root, key); before = held; after }
                  :: changes
                in
                if used > cap then begin
                  finish ~appended:(held = None && rest = []) (bind after acc)
                    rest changes;
                  runs (j + 1)
                end
                else merge (j + 1) (bind after acc) rest used changes
      in
      merge i [] entries used []
    end
  in
  runs 0

let set t ~key ~log f =
  let before = ref None in
  ignore
    (walk_edits t ~log:(List.iter log) 1
       ~key:(fun _ -> key)
       ~edit:(fun _ held ->
         before := held;
         f held));
  !before

let if_absent payload = function None -> Some payload | held -> held

let insert_batch ?unique_prefix t ~log entries =
  walk_edits ?unique_prefix t ~log (Array.length entries)
    ~key:(fun i -> fst entries.(i))
    ~edit:(fun i held -> if_absent (snd entries.(i)) held)

let undo bp data =
  let c = Image.decode dec_target data in
  let root, key = c.target in
  if
    Buffer_pool.page_live bp root
    && Image.undo c ~set:(set (open_tree bp ~root) ~key ~log:ignore)
  then Some c
  else None

let redo bp data =
  let c = Image.decode dec_target data in
  let root, key = c.target in
  Buffer_pool.page_live bp root
  && Image.redo c ~set:(set (open_tree bp ~root) ~key ~log:ignore)

(* ---- bottom-up build ---- *)

(* Cut items [0, n) into consecutive runs [(i, j)], each the longest from
   its start whose node fits [capacity t]: [size ~first j] is what item [j]
   adds to a node ([first]: it opens its node). *)
let pack t ~size n =
  let cap = capacity t - header in
  let rec runs i acc =
    if i >= n then List.rev acc
    else
      let rec grow j total =
        if j >= n then j
        else
          let total = total + size ~first:(j = i) j in
          if total <= cap then grow (j + 1) total else j
      in
      let j = grow i 0 in
      if j = i then failwith "Btree: cannot split a single oversized entry";
      runs j ((i, j) :: acc)
  in
  runs 0 []

(* One internal level over [children] (each child's first key and page),
   each node written once; the level that fits one node goes into the
   root page. A node's first child is its link; each further child is an
   entry under the child's first key. *)
let rec build_level t children =
  let runs =
    pack t
      ~size:(fun ~first j ->
        let key, page = children.(j) in
        if first then 0 else 2 + record_size key + varint_size page)
      (Array.length children)
  in
  let node (i, j) =
    Internal
      {
        seps = List.init (j - i - 1) (fun d -> fst children.(i + 1 + d));
        children = List.init (j - i) (fun d -> snd children.(i + d));
      }
  in
  match runs with
  | [ run ] -> write_node t t.root (node run)
  | runs ->
    build_level t
      (Array.of_list
         (List.map
            (fun ((i, _) as run) ->
              let page = alloc_page t in
              write_node t page (node run);
              (fst children.(i), page))
            runs))

let build t entries =
  (match read_node t t.root with
  | Leaf { entries = []; _ } -> ()
  | Leaf _ | Internal _ -> invalid_arg "Btree.build: the tree is not empty");
  let n = Array.length entries in
  for i = 1 to n - 1 do
    if compare_full (fst entries.(i - 1)) (fst entries.(i)) >= 0 then
      invalid_arg "Btree.build: entries not strictly ascending"
  done;
  let leaf ?(next = 0) (i, j) =
    Leaf { entries = Array.to_list (Array.sub entries i (j - i)); next }
  in
  (* Each page is allocated just before its left neighbour is written. *)
  let rec write_leaves page = function
    | [] -> []
    | run :: rest ->
      let next = if rest = [] then 0 else alloc_page t in
      write_node t page (leaf ~next run);
      (fst entries.(fst run), page) :: write_leaves next rest
  in
  match pack t ~size:(fun ~first:_ j -> entry_size entries.(j)) n with
  | [] | [ _ ] -> write_node t t.root (leaf (0, n))
  | runs -> build_level t (Array.of_list (write_leaves (alloc_page t) runs))

(* ---- invariants ---- *)

let check_invariants t =
  let exception Bad of string in
  let fail fmt = Fmt.kstr (fun s -> raise (Bad s)) fmt in
  let rec check page_id ~lo ~hi ~depth =
    match read_node t page_id with
    | Leaf { entries; _ } ->
      let rec sorted = function
        | (a, _) :: ((b, _) :: _ as rest) ->
          if compare_full a b >= 0 then
            fail "leaf %d not strictly sorted" page_id;
          sorted rest
        | _ -> ()
      in
      sorted entries;
      List.iter
        (fun (k, _) ->
          (match lo with
          | Some l when compare_full k l < 0 ->
            fail "leaf %d key below window" page_id
          | _ -> ());
          match hi with
          | Some h when compare_full k h >= 0 ->
            fail "leaf %d key above window" page_id
          | _ -> ())
        entries;
      depth
    | Internal { seps; children } ->
      if List.length children <> List.length seps + 1 then
        fail "internal %d child/separator mismatch" page_id;
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          if compare_full a b >= 0 then
            fail "internal %d separators not sorted" page_id;
          sorted rest
        | _ -> ()
      in
      sorted seps;
      let depths =
        List.mapi
          (fun i child ->
            let lo' = if i = 0 then lo else Some (List.nth seps (i - 1)) in
            let hi' =
              if i = List.length seps then hi else Some (List.nth seps i)
            in
            check child ~lo:lo' ~hi:hi' ~depth:(depth + 1))
          children
      in
      (match depths with
      | [] -> fail "internal %d has no children" page_id
      | d :: rest ->
        if List.exists (fun x -> x <> d) rest then
          fail "internal %d has uneven subtree heights" page_id);
      List.hd depths
  in
  match check t.root ~lo:None ~hi:None ~depth:0 with
  | _ ->
    (* leaf chain must be globally sorted *)
    let prev = ref None in
    (try
       iter t (fun k _ ->
           (match !prev with
           | Some p when compare_full p k >= 0 ->
             fail "leaf chain out of order"
           | _ -> ());
           prev := Some k)
     with Bad s -> raise (Bad s));
    Ok ()
  | exception Bad s -> Error s
