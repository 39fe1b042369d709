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

(* ---- node (de)serialisation ---- *)

let encode_node node =
  let e = Codec.Enc.create ~size:256 () in
  (match node with
  | Leaf { entries; next } ->
    Codec.Enc.byte e 0;
    Codec.Enc.varint e next;
    Codec.Enc.list e
      (fun e (k, p) ->
        Codec.Enc.record e k;
        Codec.Enc.string e p)
      entries
  | Internal { seps; children } ->
    Codec.Enc.byte e 1;
    Codec.Enc.list e Codec.Enc.record seps;
    Codec.Enc.list e (fun e c -> Codec.Enc.varint e c) children);
  Codec.Enc.to_string e

let leaf_tag = 0

let entry d =
  let k = Codec.Dec.record d in
  let p = Codec.Dec.string d in
  (k, p)

(* A leaf after its tag: the entries and the chain link. *)
let decode_leaf d =
  let next = Codec.Dec.varint d in
  (Codec.Dec.list d entry, next)

let decode_node d =
  match Codec.Dec.byte d with
  | 0 ->
    let entries, next = decode_leaf d in
    Leaf { entries; next }
  | 1 ->
    let seps = Codec.Dec.list d Codec.Dec.record in
    let children = Codec.Dec.list d Codec.Dec.varint in
    Internal { seps; children }
  | n -> failwith (Fmt.str "Btree: bad node tag %d" n)

(* [f] gets a decoder over the node image in the pinned frame. The view is
   read-only and dies with the unpin, so [f] copies out (decodes) only what
   it returns — the discipline of the heap's span scan. *)
let with_node t page_id f =
  Buffer_pool.with_page t.bp page_id (fun frame ->
      let img = Bytes.unsafe_to_string frame.Buffer_pool.data in
      f (Codec.Dec.of_string_span img ~pos:2 ~len:(String.get_uint16_le img 0)))

let read_node t page_id = with_node t page_id decode_node

(* The last [trailer] bytes of a page are no node's: on the root they hold
   the tree's advisory count. *)
let trailer = 8

let write_node t page_id node =
  let data = encode_node node in
  let len = String.length data in
  let page_size = Disk.page_size (Buffer_pool.disk t.bp) in
  if len + 2 > page_size - trailer then failwith "Btree: node exceeds page size";
  Buffer_pool.with_page_mut t.bp page_id (fun frame ->
      Bytes.set_uint16_le frame.Buffer_pool.data 0 len;
      Bytes.blit_string data 0 frame.Buffer_pool.data 2 len)

let capacity t =
  Disk.page_size (Buffer_pool.disk t.bp) - 64

let node_size node = String.length (encode_node node)

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

(* In an internal node after its tag: the index and page of the child
   covering [key] (the leftmost for [None]) — the first separator above
   [key], found in place. *)
let child_at d key =
  let nseps = Codec.Dec.varint d in
  let rec seps j i =
    if j = nseps then if i < 0 then nseps else i
    else
      let i =
        if i >= 0 then (Codec.Dec.skip_record d; i)
        else
          match key with
          | None -> (Codec.Dec.skip_record d; j)
          | Some k -> if compare_encoded ~prefix:false d k > 0 then j else -1
      in
      seps (j + 1) i
  in
  let i = seps 0 (-1) in
  ignore (Codec.Dec.varint d);
  for _ = 1 to i do
    ignore (Codec.Dec.varint d)
  done;
  (i, Codec.Dec.varint d)

(* Walk from [from] to the leaf covering [key] ([None]: the leftmost),
   pinning each node once and choosing children in place; [leaf page_id d]
   runs with the leaf pinned, [d] just past its tag. Returns its result and
   the path above the leaf — (page id, index of the child taken), innermost
   first. *)
let descend ?from t key leaf =
  let rec go page_id path =
    match
      with_node t page_id (fun d ->
          if Codec.Dec.byte d = leaf_tag then Either.Left (leaf page_id d)
          else Either.Right (child_at d key))
    with
    | Either.Left r -> (r, path)
    | Either.Right (i, child) -> go child ((page_id, i) :: path)
  in
  go (Option.value from ~default:t.root) []

let lookup entries key =
  List.find_map
    (fun (k, p) -> if compare_full k key = 0 then Some p else None)
    entries

let find t ~key =
  fst
    (descend t (Some key) (fun _ d ->
         ignore (Codec.Dec.varint d);
         let n = Codec.Dec.varint d in
         let rec entry i =
           if i = n then None
           else
             let c = compare_encoded ~prefix:false d key in
             if c = 0 then Some (Codec.Dec.string d)
             else if c > 0 then None
             else begin
               Codec.Dec.skip_string d;
               entry (i + 1)
             end
         in
         entry 0))

(* The leaf covering [key], decoded for a write: its page id, entries and
   chain link, and the path above it. *)
let descend_leaf t key =
  let (leaf_id, (entries, next)), path =
    descend t (Some key) (fun page_id d -> (page_id, decode_leaf d))
  in
  (leaf_id, entries, next, path)

(* ---- leaf writes and splits ---- *)

(* Split a list of entries at roughly half the encoded size. *)
let split_entries entries size_of =
  let total = List.fold_left (fun acc e -> acc + size_of e) 0 entries in
  let rec loop acc_size left = function
    | [] -> (List.rev left, [])
    | [ last ] ->
      if left = [] then ([ last ], []) else (List.rev left, [ last ])
    | e :: rest ->
      let acc_size = acc_size + size_of e in
      if acc_size * 2 >= total && left <> [] then (List.rev left, e :: rest)
      else loop acc_size (e :: left) rest
  in
  loop 0 [] entries

let entry_size (k, p) =
  String.length (Codec.encode_record k |> Bytes.to_string) + String.length p + 8


(* Write a leaf's new entries, splitting it (and, through [promote], its
   ancestors on [path]) when they overflow the page. *)
let rec write_leaf t page_id path entries next =
  let node = Leaf { entries; next } in
  if node_size node <= capacity t then write_node t page_id node
  else begin
    let left, right = split_entries entries entry_size in
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
    let node = Internal { seps; children } in
    if node_size node <= capacity t then write_node t page_id node
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

(* [entries] with [key] bound to [payload] ([None] removes it). *)
let put entries key payload =
  let bind rest =
    match payload with Some p -> (key, p) :: rest | None -> rest
  in
  let rec go acc = function
    | ((k, _) as e) :: rest ->
      let c = compare_full key k in
      if c > 0 then go (e :: acc) rest
      else List.rev_append acc (bind (if c = 0 then rest else e :: rest))
    | [] -> List.rev_append acc (bind [])
  in
  go [] entries

(* ---- change images ---- *)

type change = (int * Value.t array) Image.t

let enc_target e (root, key) =
  Codec.Enc.varint e root;
  Codec.Enc.record e key

let dec_target d =
  let root = Codec.Dec.varint d in
  (root, Codec.Dec.record d)

(* The change is logged once the leaf is located and the new payload known,
   before [write_leaf] writes or allocates any page. *)
let set t ~key ~log f =
  let leaf_id, entries, next, path = descend_leaf t key in
  Image.change enc_target ~log
    ~read:(fun () -> lookup entries key)
    ~write:(fun after -> write_leaf t leaf_id path (put entries key after) next)
    (t.root, key) f

let if_absent payload = function None -> Some payload | held -> held

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

(* ---- iteration ---- *)

let iter t f =
  let rec walk page_id =
    if page_id <> 0 then begin
      match read_node t page_id with
      | Leaf { entries; next } ->
        List.iter (fun (k, p) -> f k p) entries;
        walk next
      | Internal _ -> failwith "Btree.iter: leaf chain hit an internal node"
    end
  in
  walk (fst (descend t None (fun page_id _ -> page_id)))

let count t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let height t = List.length (snd (descend t None (fun _ _ -> ()))) + 1

(* ---- cursors ---- *)

type bound = Incl of Value.t array | Excl of Value.t array | Unbounded

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

(* A key is admitted when it lies strictly after the cursor position (or
   satisfies [lo] on the first step). Consumes the encoded key at [d]. *)
let admits c d =
  match c.last, c.lo with
  | Some k, _ -> compare_encoded ~prefix:false d k > 0
  | None, Unbounded ->
    Codec.Dec.skip_record d;
    true
  | None, Incl b -> compare_encoded ~prefix:true d b >= 0
  | None, Excl b -> compare_encoded ~prefix:true d b > 0

(* Whether the key encoded at [d] is within [hi]; leaves [d] where it was. *)
let below_hi hi d =
  match hi with
  | Unbounded -> true
  | Incl b | Excl b ->
    let start = Codec.Dec.offset d in
    let c = compare_encoded ~prefix:true d b in
    Codec.Dec.seek d start;
    (match hi with Incl _ -> c <= 0 | _ -> c < 0)

type 'a found = Found of 'a | Skip of int  (* next leaf *)

(* One cursor step: find the first entry after the cursor position in the
   hinted leaf (or by descent on the first step, after [seek], or when the
   root split under the hint) and along the chain from there, pinning each
   leaf once. [f d remaining] runs in the pinned leaf with [d] on that
   entry, [remaining] entries from it to the leaf's end, so sequential
   access costs O(1) amortized pins. *)
let step c f =
  let t = c.tree in
  let scan page_id d =
    let next_leaf = Codec.Dec.varint d in
    let n = Codec.Dec.varint d in
    let rec go i =
      if i = n then Skip next_leaf
      else begin
        let start = Codec.Dec.offset d in
        if admits c d then begin
          Codec.Dec.seek d start;
          c.leaf_hint <- page_id;
          Found (f d (n - i))
        end
        else begin
          Codec.Dec.skip_string d;
          go (i + 1)
        end
      end
    in
    go 0
  in
  let rec along = function
    | Found r -> Some r
    | Skip 0 -> None
    | Skip page_id ->
      along
        (with_node t page_id (fun d ->
             if Codec.Dec.byte d <> leaf_tag then
               failwith "Btree: leaf chain hit an internal node";
             scan page_id d))
  in
  let key =
    match c.last, c.lo with
    | (Some _ as k), _ -> k
    | None, Unbounded -> None
    | None, (Incl b | Excl b) -> Some b
  in
  let from = if c.leaf_hint = 0 then t.root else c.leaf_hint in
  along (fst (descend ~from t key scan))

let next c =
  if c.finished then None
  else
    let first d _ = if below_hi c.hi d then Some (entry d) else None in
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
    let run d remaining =
      let rec take j acc =
        if j = remaining then acc
        else if below_hi c.hi d then take (j + 1) (entry d :: acc)
        else begin
          c.finished <- true;
          acc
        end
      in
      take 0 []
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

(* ---- sorted-batch insert ---- *)

(* The key window of the leaf below [path] (as {!descend} returns it): the
   nearest ancestor separators below (inclusive) and above (exclusive), None
   at the tree's edges. Pins each ancestor at most once, innermost first,
   and decodes only the separators it returns. *)
let window t path =
  let rec up lo hi = function
    | (page_id, i) :: rest when Option.is_none lo || Option.is_none hi ->
      let lo, hi =
        with_node t page_id (fun d ->
            ignore (Codec.Dec.byte d);
            let nseps = Codec.Dec.varint d in
            for _ = 2 to i do
              Codec.Dec.skip_record d
            done;
            let lo =
              if i = 0 then lo
              else if Option.is_none lo then Some (Codec.Dec.record d)
              else (Codec.Dec.skip_record d; lo)
            in
            let hi =
              if i < nseps && Option.is_none hi then Some (Codec.Dec.record d)
              else hi
            in
            (lo, hi))
      in
      up lo hi rest
    | _ -> (lo, hi)
  in
  up None None path

(* Equality on the first [p] key values (the unique-index field prefix). *)
let equal_on p a b =
  let rec loop j = j >= p || (Value.compare a.(j) b.(j) = 0 && loop (j + 1)) in
  Array.length a >= p && Array.length b >= p && loop 0

let prefix_present t prefix =
  let c = cursor ~lo:(Incl prefix) ~hi:(Incl prefix) t in
  next c <> None

let insert_batch ?unique_prefix t ~log entries =
  let n = Array.length entries in
  (* Under a unique prefix, adjacent batch entries sharing the prefix veto
     at the second one: [limit] is the first offender (sorted input makes
     within-batch duplicates adjacent), and nothing at or past it applies. *)
  let limit =
    match unique_prefix with
    | None -> n
    | Some p ->
      let rec scan j =
        if j >= n then n
        else if equal_on p (fst entries.(j - 1)) (fst entries.(j)) then j
        else scan (j + 1)
      in
      if n <= 1 then n else scan 1
  in
  let exception Halt of int in
  let halted = ref None in
  (try
     let i = ref 0 in
     while !i < limit do
       let key0, payload0 = entries.(!i) in
       let leaf_id, old_entries, next, path = descend_leaf t key0 in
       let lo, hi = window t path in
       let in_leaf k =
         match hi with None -> true | Some s -> compare_full k s < 0
       in
       (* the maximal run that fits in this leaf without splitting *)
       let budget =
         ref (capacity t - node_size (Leaf { entries = old_entries; next }))
       in
       let j = ref !i in
       let stop = ref false in
       while (not !stop) && !j < limit do
         let (k, _) as e = entries.(!j) in
         if not (in_leaf k) then stop := true
         else begin
           let sz = entry_size e in
           if sz > !budget then stop := true
           else begin
             budget := !budget - sz;
             incr j
           end
         end
       done;
       if !j = !i then begin
         (* the leaf cannot take even one more entry: the split path *)
         (match unique_prefix with
         | Some p when prefix_present t (Array.sub key0 0 p) ->
           raise (Halt !i)
         | _ -> ());
         ignore
           (set t ~key:key0
              ~log:(fun change -> log [ change ])
              (if_absent payload0));
         incr i
       end
       else begin
         (* merge entries !i..!j-1 with the decoded leaf: one node decode,
            one write, uniqueness checked against the sorted neighbors (a
            prefix group is contiguous in key order, so a match not adjacent
            to the insert position can only straddle a leaf boundary — the
            separator carries the prefix in that case and triggers a probe) *)
         let probe k p = prefix_present t (Array.sub k 0 p) in
         let dup_at ~last_old ~old k =
           match unique_prefix with
           | None -> false
           | Some p ->
             let eq o = equal_on p o k in
             (match last_old with
             | Some o -> eq o
             | None -> (
               match lo with Some s when eq s -> probe k p | _ -> false))
             ||
             (match old with
             | (o, _) :: _ -> eq o
             | [] -> (
               match hi with Some s when eq s -> probe k p | _ -> false))
         in
         let run =
           List.init (!j - !i) (fun d ->
               let k, p = entries.(!i + d) in
               (!i + d, k, p))
         in
         (* [added] collects the change of each entry applied, newest
            first *)
         let rec merge acc added last_old run old =
           let stop idx = (List.rev_append acc old, added, Some idx) in
           match run, old with
           | [], _ -> (List.rev_append acc old, added, None)
           | (_, k, _) :: _, ((ok_, _) as o) :: otl
             when compare_full k ok_ > 0 ->
             merge (o :: acc) added (Some ok_) run otl
           | (idx, k, _) :: rtl, (ok_, _) :: _ when compare_full k ok_ = 0 ->
             (* identical entry already present: idempotent, unless the
                caller's uniqueness covers it *)
             if unique_prefix <> None then stop idx
             else merge acc added last_old rtl old
           | (idx, k, p) :: rtl, old ->
             if dup_at ~last_old ~old k then stop idx
             else begin
               match acc with
               | (ak, _) :: _ when compare_full k ak = 0 ->
                 (* duplicate full key within the batch: keep the first *)
                 merge acc added last_old rtl old
               | _ ->
                 let change =
                   Image.encode enc_target
                     { target = (t.root, k); before = None; after = Some p }
                 in
                 merge ((k, p) :: acc) (change :: added) last_old rtl old
             end
         in
         let merged, added, halt = merge [] [] None run old_entries in
         if added <> [] then begin
           log (List.rev added);
           write_node t leaf_id (Leaf { entries = merged; next })
         end;
         (match halt with Some idx -> raise (Halt idx) | None -> ());
         i := !j
       end
     done;
     if limit < n then halted := Some limit
   with Halt idx -> halted := Some idx);
  match !halted with None -> Ok () | Some idx -> Error idx

(* ---- bottom-up build ---- *)

let varint_size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let record_size k = Bytes.length (Codec.encode_record k)

(* Cut items [0, n) into consecutive runs [(i, j)], each the longest from
   its start whose node fits [capacity t]: [header count] is a node's size
   without its items, [size ~first j] what item [j] adds ([first]: it opens
   its node). *)
let pack t ~header ~size n =
  let cap = capacity t in
  let rec runs i acc =
    if i >= n then List.rev acc
    else
      let rec grow j total =
        if j >= n then j
        else
          let total = total + size ~first:(j = i) j in
          if header (j - i + 1) + total <= cap then grow (j + 1) total else j
      in
      let j = grow i 0 in
      if j = i then failwith "Btree: cannot split a single oversized entry";
      runs j ((i, j) :: acc)
  in
  runs 0 []

(* One internal level over [children] (each child's first key and page),
   each node written once; the level that fits one node goes into the
   root page. *)
let rec build_level t children =
  let runs =
    pack t
      ~header:(fun c -> 1 + varint_size (c - 1) + varint_size c)
      ~size:(fun ~first j ->
        let key, page = children.(j) in
        varint_size page + if first then 0 else record_size key)
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
  let sizes =
    Array.map
      (fun (k, p) ->
        let len = String.length p in
        record_size k + varint_size len + len)
      entries
  in
  let leaf_header ~link count = 1 + link + varint_size count in
  let leaf ?(next = 0) (i, j) =
    Leaf { entries = Array.to_list (Array.sub entries i (j - i)); next }
  in
  if leaf_header ~link:1 n + Array.fold_left ( + ) 0 sizes <= capacity t then
    write_node t t.root (leaf (0, n))
  else begin
    (* A leaf's link is the next leaf's page, unknown while packing: leave
       room for the longest. Each page is allocated just before its left
       neighbour is written. *)
    let runs =
      pack t
        ~header:(leaf_header ~link:(varint_size max_int))
        ~size:(fun ~first:_ j -> sizes.(j))
        n
    in
    let rec write_leaves page = function
      | [] -> []
      | run :: rest ->
        let next = if rest = [] then 0 else alloc_page t in
        write_node t page (leaf ~next run);
        (fst entries.(fst run), page) :: write_leaves next rest
    in
    build_level t (Array.of_list (write_leaves (alloc_page t) runs))
  end

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
