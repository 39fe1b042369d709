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

let decode_node data =
  let d = Codec.Dec.of_string data in
  match Codec.Dec.byte d with
  | 0 ->
    let next = Codec.Dec.varint d in
    let entries =
      Codec.Dec.list d (fun d ->
          let k = Codec.Dec.record d in
          let p = Codec.Dec.string d in
          (k, p))
    in
    Leaf { entries; next }
  | 1 ->
    let seps = Codec.Dec.list d Codec.Dec.record in
    let children = Codec.Dec.list d Codec.Dec.varint in
    Internal { seps; children }
  | n -> failwith (Fmt.str "Btree: bad node tag %d" n)

let read_node t page_id =
  Buffer_pool.with_page t.bp page_id (fun frame ->
      let len = Bytes.get_uint16_le frame.Buffer_pool.data 0 in
      decode_node (Bytes.sub_string frame.Buffer_pool.data 2 len))

let write_node t page_id node =
  let data = encode_node node in
  let len = String.length data in
  let page_size = Disk.page_size (Buffer_pool.disk t.bp) in
  if len + 2 > page_size then failwith "Btree: node exceeds page size";
  Buffer_pool.with_page_mut t.bp page_id ~lsn:0L (fun frame ->
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

let alloc_page t =
  let frame = Buffer_pool.alloc t.bp in
  let id = frame.Buffer_pool.page_id in
  Buffer_pool.unpin ~dirty:true t.bp frame;
  id

(* ---- search ---- *)

(* Child index for a key in an internal node: first i with key < seps.(i). *)
let child_index seps key =
  let rec loop i = function
    | [] -> i
    | sep :: rest -> if compare_full key sep < 0 then i else loop (i + 1) rest
  in
  loop 0 seps

(* Descend to the leaf covering [key]: its page id, entries and chain link,
   and the internal nodes above it, innermost first, each with the index of
   the child taken. *)
let descend t key =
  let rec go page_id path =
    match read_node t page_id with
    | Leaf { entries; next } -> (page_id, entries, next, path)
    | Internal { seps; children } ->
      let i = child_index seps key in
      go (List.nth children i) ((page_id, seps, children, i) :: path)
  in
  go t.root []

let lookup entries key =
  List.find_map
    (fun (k, p) -> if compare_full k key = 0 then Some p else None)
    entries

let find t ~key =
  let _, entries, _, _ = descend t key in
  lookup entries key

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
  | (page_id, seps, children, i) :: up ->
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

(* ---- change records ---- *)

type change = {
  root : int;
  key : Value.t array;
  before : string option;
  after : string option;
}

let encode_change c =
  let e = Codec.Enc.create () in
  Codec.Enc.varint e c.root;
  Codec.Enc.record e c.key;
  Codec.Enc.option e Codec.Enc.string c.before;
  Codec.Enc.option e Codec.Enc.string c.after;
  Codec.Enc.to_string e

let decode_change data =
  let d = Codec.Dec.of_string data in
  let root = Codec.Dec.varint d in
  let key = Codec.Dec.record d in
  let before = Codec.Dec.option d Codec.Dec.string in
  let after = Codec.Dec.option d Codec.Dec.string in
  { root; key; before; after }

let same = Option.equal String.equal

(* The change is logged once the leaf is located and the new payload known,
   before [write_leaf] writes or allocates any page. *)
let set t ~key ~log f =
  let leaf_id, entries, next, path = descend t key in
  let before = lookup entries key in
  let after = f before in
  if not (same before after) then begin
    log (encode_change { root = t.root; key; before; after });
    write_leaf t leaf_id path (put entries key after) next
  end;
  before

let if_absent payload = function None -> Some payload | held -> held

let undo bp data =
  let c = decode_change data in
  if not (Buffer_pool.page_live bp c.root) then None
  else begin
    let held =
      set (open_tree bp ~root:c.root) ~key:c.key ~log:ignore (fun held ->
          if same held c.after then c.before else held)
    in
    if same held c.after then Some c else None
  end

(* ---- iteration ---- *)

let rec leftmost_leaf t page_id =
  match read_node t page_id with
  | Leaf _ -> page_id
  | Internal { children; _ } -> leftmost_leaf t (List.hd children)

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
  walk (leftmost_leaf t t.root)

let count t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let min_key t =
  let exception Found of Value.t array in
  match iter t (fun k _ -> raise (Found k)) with
  | () -> None
  | exception Found k -> Some k

let height t =
  let rec loop page_id acc =
    match read_node t page_id with
    | Leaf _ -> acc
    | Internal { children; _ } -> loop (List.hd children) (acc + 1)
  in
  loop t.root 1

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
         [last] lies in this leaf or further along the chain. A root that
         became internal invalidates the hint and forces a re-descent. *)
}

let cursor ?(lo = Unbounded) ?(hi = Unbounded) t =
  { tree = t; lo; hi; last = None; finished = false; leaf_hint = 0 }

let lo_admits lo key =
  match lo with
  | Unbounded -> true
  | Incl b -> compare_prefix key b >= 0
  | Excl b -> compare_prefix key b > 0

let hi_admits hi key =
  match hi with
  | Unbounded -> true
  | Incl b -> compare_prefix key b <= 0
  | Excl b -> compare_prefix key b < 0

(* A key is admitted when it lies strictly after the cursor position (or
   satisfies [lo] on the first step). *)
let cursor_admits c key =
  match c.last with
  | Some k -> compare_full key k > 0
  | None -> lo_admits c.lo key

(* Find the leaf holding the first entry strictly after the cursor position,
   walking the leaf chain from the descent point; returns its entries and
   the following leaf's page id. The cursor remembers the leaf it last
   delivered from, so sequential access costs O(1) amortized node reads; the
   full descent happens only on the first step, after [seek], or when the
   hinted page stopped being a leaf. *)
let find_next_leaf c =
  let t = c.tree in
  let descend_key =
    match c.last with
    | Some k -> Some k
    | None -> begin
      match c.lo with Unbounded -> None | Incl b | Excl b -> Some b
    end
  in
  let rec to_leaf page_id =
    match read_node t page_id with
    | Leaf _ -> page_id
    | Internal { seps; children } ->
      let i =
        match descend_key with
        | None -> 0
        | Some k -> child_index seps k
      in
      to_leaf (List.nth children i)
  in
  let rec scan_leaf page_id =
    if page_id = 0 then None
    else
      match read_node t page_id with
      | Leaf { entries; next } ->
        if List.exists (fun (k, _) -> cursor_admits c k) entries then begin
          c.leaf_hint <- page_id;
          Some (entries, next)
        end
        else scan_leaf next
      | Internal _ -> failwith "Btree: leaf chain hit an internal node"
  in
  let start =
    if c.leaf_hint = 0 then to_leaf t.root
    else
      match read_node t c.leaf_hint with
      | Leaf _ -> c.leaf_hint
      | Internal _ -> to_leaf t.root  (* was the root; it split *)
  in
  scan_leaf start

let find_next c =
  match find_next_leaf c with
  | None -> None
  | Some (entries, _next) ->
    List.find_opt (fun (k, _) -> cursor_admits c k) entries

let next c =
  if c.finished then None
  else
    match find_next c with
    | None ->
      c.finished <- true;
      None
    | Some (k, p) ->
      if hi_admits c.hi k then begin
        c.last <- Some k;
        Some (k, p)
      end
      else begin
        c.finished <- true;
        None
      end

(* Deliver every remaining in-window entry of the next leaf as one run; the
   cursor ends up on the run's last key, so a [seek] to a captured position
   between runs re-enters exactly after it. The returned page id is the
   following leaf (0 at the chain's end, or when the window closes inside
   this leaf) — batch scans prefetch it before handing the run out. *)
let next_run c =
  if c.finished then None
  else
    match find_next_leaf c with
    | None ->
      c.finished <- true;
      None
    | Some (entries, next_leaf) ->
      let run = ref [] in
      let over = ref false in
      List.iter
        (fun ((k, _) as e) ->
          if (not !over) && cursor_admits c k then
            if hi_admits c.hi k then run := e :: !run else over := true)
        entries;
      begin
        match List.rev !run with
        | [] ->
          c.finished <- true;
          None
        | hits ->
          let arr = Array.of_list hits in
          let k, _ = arr.(Array.length arr - 1) in
          c.last <- Some k;
          if !over then begin
            c.finished <- true;
            Some (arr, 0)
          end
          else Some (arr, next_leaf)
      end

let position c = c.last

let seek c pos =
  c.last <- pos;
  c.finished <- false;
  c.leaf_hint <- 0

(* ---- sorted-batch insert ---- *)

(* The key window of the leaf below [path] (as {!descend} returns it): the
   nearest ancestor separators below (inclusive) and above (exclusive), None
   at the tree's edges. *)
let window path =
  let lo =
    List.find_map
      (fun (_, seps, _, i) ->
        if i > 0 then Some (List.nth seps (i - 1)) else None)
      path
  in
  (lo, List.find_map (fun (_, seps, _, i) -> List.nth_opt seps i) path)

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
       let leaf_id, old_entries, next, path = descend t key0 in
       let lo, hi = window path in
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
                   { root = t.root; key = k; before = None; after = Some p }
                 in
                 merge ((k, p) :: acc) (encode_change change :: added)
                   last_old rtl old
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
