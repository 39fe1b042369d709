open Dmx_value
open Dmx_page

type node =
  | Leaf of (Rect.t * string) list
  | Internal of (Rect.t * int) list  (* (MBR of subtree, child page) *)

type t = {
  bp : Buffer_pool.t;
  root : int;
}

(* ---- node (de)serialisation ---- *)

let encode_node node =
  let e = Codec.Enc.create ~size:256 () in
  (match node with
  | Leaf entries ->
    Codec.Enc.byte e 0;
    Codec.Enc.list e
      (fun e (r, p) ->
        Rect.enc e r;
        Codec.Enc.string e p)
      entries
  | Internal entries ->
    Codec.Enc.byte e 1;
    Codec.Enc.list e
      (fun e (r, c) ->
        Rect.enc e r;
        Codec.Enc.varint e c)
      entries);
  Codec.Enc.to_string e

let decode_node data =
  let d = Codec.Dec.of_string data in
  match Codec.Dec.byte d with
  | 0 ->
    Leaf
      (Codec.Dec.list d (fun d ->
           let r = Rect.dec d in
           let p = Codec.Dec.string d in
           (r, p)))
  | 1 ->
    Internal
      (Codec.Dec.list d (fun d ->
           let r = Rect.dec d in
           let c = Codec.Dec.varint d in
           (r, c)))
  | n -> failwith (Fmt.str "Rtree: bad node tag %d" n)

let read_node t page_id =
  Buffer_pool.with_page t.bp page_id (fun frame ->
      let len = Bytes.get_uint16_le frame.Buffer_pool.data 0 in
      decode_node (Bytes.sub_string frame.Buffer_pool.data 2 len))

let write_node t page_id node =
  let data = encode_node node in
  let len = String.length data in
  if len + 2 > Disk.page_size (Buffer_pool.disk t.bp) then
    failwith "Rtree: node exceeds page size";
  Buffer_pool.with_page_mut t.bp page_id (fun frame ->
      Bytes.set_uint16_le frame.Buffer_pool.data 0 len;
      Bytes.blit_string data 0 frame.Buffer_pool.data 2 len)

let capacity t = Disk.page_size (Buffer_pool.disk t.bp) - 64
let node_size node = String.length (encode_node node)

let create bp =
  let frame = Buffer_pool.alloc bp in
  let t = { bp; root = frame.Buffer_pool.page_id } in
  Buffer_pool.unpin ~dirty:true bp frame;
  write_node t t.root (Leaf []);
  t

let open_tree bp ~root = { bp; root }
let root t = t.root

let alloc_page t =
  let frame = Buffer_pool.alloc t.bp in
  let id = frame.Buffer_pool.page_id in
  Buffer_pool.unpin ~dirty:true t.bp frame;
  id

let node_mbr = function
  | Leaf [] | Internal [] -> None
  | Leaf ((r0, _) :: rest) ->
    Some (List.fold_left (fun acc (r, _) -> Rect.union acc r) r0 rest)
  | Internal ((r0, _) :: rest) ->
    Some (List.fold_left (fun acc (r, _) -> Rect.union acc r) r0 rest)

(* ---- quadratic split (Guttman) over generic entries with a rect ---- *)

let quadratic_split rect_of entries =
  (* Pick seeds: the pair wasting the most area if grouped together. *)
  let arr = Array.of_list entries in
  let n = Array.length arr in
  assert (n >= 2);
  let best = ref (0, 1) in
  let best_waste = ref neg_infinity in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      let ri = rect_of arr.(i) and rj = rect_of arr.(j) in
      let waste = Rect.area (Rect.union ri rj) -. Rect.area ri -. Rect.area rj in
      if waste > !best_waste then begin
        best_waste := waste;
        best := (i, j)
      end
    done
  done;
  let si, sj = !best in
  let g1 = ref [ arr.(si) ] and g2 = ref [ arr.(sj) ] in
  let m1 = ref (rect_of arr.(si)) and m2 = ref (rect_of arr.(sj)) in
  let rest =
    Array.to_list arr
    |> List.filteri (fun k _ -> k <> si && k <> sj)
  in
  (* Assign remaining entries by maximal preference difference. *)
  let remaining = ref rest in
  while !remaining <> [] do
    let pick, d1, d2 =
      List.fold_left
        (fun (best, bd1, bd2) e ->
          let r = rect_of e in
          let d1 = Rect.enlargement !m1 r and d2 = Rect.enlargement !m2 r in
          match best with
          | None -> (Some e, d1, d2)
          | Some _ ->
            if Float.abs (d1 -. d2) > Float.abs (bd1 -. bd2) then (Some e, d1, d2)
            else (best, bd1, bd2))
        (None, 0., 0.) !remaining
    in
    let e = Option.get pick in
    remaining := List.filter (fun x -> x != e) !remaining;
    let to_g1 =
      if d1 < d2 then true
      else if d2 < d1 then false
      else if Rect.area !m1 < Rect.area !m2 then true
      else if Rect.area !m2 < Rect.area !m1 then false
      else List.length !g1 <= List.length !g2
    in
    if to_g1 then begin
      g1 := e :: !g1;
      m1 := Rect.union !m1 (rect_of e)
    end
    else begin
      g2 := e :: !g2;
      m2 := Rect.union !m2 (rect_of e)
    end
  done;
  (!g1, !g2)

(* ---- insert ---- *)

type insert_result =
  | Updated of Rect.t  (* subtree MBR after insert *)
  | Split2 of (Rect.t * int) * (Rect.t * int)
      (* subtree was split: both (MBR, page) halves; the first reuses the
         original page *)

let rec insert_in t page_id rect payload =
  match read_node t page_id with
  | Leaf entries ->
    let entries = (rect, payload) :: entries in
    let node = Leaf entries in
    if node_size node <= capacity t then begin
      write_node t page_id node;
      Updated (Option.get (node_mbr node))
    end
    else begin
      let g1, g2 = quadratic_split fst entries in
      let right_id = alloc_page t in
      write_node t page_id (Leaf g1);
      write_node t right_id (Leaf g2);
      Split2
        ( (Option.get (node_mbr (Leaf g1)), page_id),
          (Option.get (node_mbr (Leaf g2)), right_id) )
    end
  | Internal entries ->
    (* ChooseLeaf: least enlargement, ties by smallest area. *)
    let _, (child_rect, child_id), idx =
      List.fold_left
        (fun (i, best, bi) (r, c) ->
          let cost = (Rect.enlargement r rect, Rect.area r) in
          match best with
          | (br, _) when (Rect.enlargement br rect, Rect.area br) <= cost ->
            (i + 1, best, bi)
          | _ -> (i + 1, (r, c), i))
        (0, List.hd entries, 0) entries
    in
    ignore child_rect;
    begin
      match insert_in t child_id rect payload with
      | Updated mbr ->
        let entries =
          List.mapi (fun i (r, c) -> if i = idx then (mbr, c) else (r, c)) entries
        in
        write_node t page_id (Internal entries);
        Updated (Option.get (node_mbr (Internal entries)))
      | Split2 (a, b) ->
        let entries =
          List.filteri (fun i _ -> i <> idx) entries @ [ a; b ]
        in
        let node = Internal entries in
        if node_size node <= capacity t then begin
          write_node t page_id node;
          Updated (Option.get (node_mbr node))
        end
        else begin
          let g1, g2 = quadratic_split fst entries in
          let right_id = alloc_page t in
          write_node t page_id (Internal g1);
          write_node t right_id (Internal g2);
          Split2
            ( (Option.get (node_mbr (Internal g1)), page_id),
              (Option.get (node_mbr (Internal g2)), right_id) )
        end
    end

let insert t ~rect ~payload =
  match insert_in t t.root rect payload with
  | Updated _ -> ()
  | Split2 ((r1, p1), (r2, p2)) ->
    (* Fixed root: move the half living in the root page out to a new page. *)
    assert (p1 = t.root);
    let left_id = alloc_page t in
    write_node t left_id (read_node t t.root);
    write_node t t.root (Internal [ (r1, left_id); (r2, p2) ])

(* ---- delete (lazy) ---- *)

let rec delete_in t page_id rect payload =
  match read_node t page_id with
  | Leaf entries ->
    let found =
      List.exists (fun (r, p) -> Rect.equal r rect && p = payload) entries
    in
    if not found then None
    else begin
      let entries =
        List.filter (fun (r, p) -> not (Rect.equal r rect && p = payload)) entries
      in
      write_node t page_id (Leaf entries);
      Some (node_mbr (Leaf entries))
    end
  | Internal entries ->
    let rec try_children acc = function
      | [] -> None
      | (r, c) :: rest ->
        if Rect.encloses r rect then begin
          match delete_in t c rect payload with
          | Some child_mbr ->
            let entries =
              List.rev_append acc
                ((match child_mbr with
                 | Some m -> [ (m, c) ]
                 | None -> [ (r, c) ] (* empty child: keep slot, stale MBR *))
                @ rest)
            in
            write_node t page_id (Internal entries);
            Some (node_mbr (Internal entries))
          | None -> try_children ((r, c) :: acc) rest
        end
        else try_children ((r, c) :: acc) rest
    in
    try_children [] entries

let delete t ~rect ~payload = delete_in t t.root rect payload <> None

(* ---- search ---- *)

let search t ~descend ~admit =
  let acc = ref [] in
  let rec walk page_id =
    match read_node t page_id with
    | Leaf entries ->
      List.iter (fun (r, p) -> if admit r then acc := (r, p) :: !acc) entries
    | Internal entries ->
      List.iter (fun (r, c) -> if descend r then walk c) entries
  in
  walk t.root;
  !acc

let search_overlapping t q =
  search t ~descend:(fun r -> Rect.intersects r q)
    ~admit:(fun r -> Rect.intersects r q)

let search_enclosed_by t q =
  search t ~descend:(fun r -> Rect.intersects r q)
    ~admit:(fun r -> Rect.encloses q r)

let search_enclosing t q =
  search t ~descend:(fun r -> Rect.encloses r q)
    ~admit:(fun r -> Rect.encloses r q)

let iter t f =
  let rec walk page_id =
    match read_node t page_id with
    | Leaf entries -> List.iter (fun (r, p) -> f r p) entries
    | Internal entries -> List.iter (fun (_, c) -> walk c) entries
  in
  walk t.root

let count t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let height t =
  let rec loop page_id acc =
    match read_node t page_id with
    | Leaf _ -> acc
    | Internal [] -> acc
    | Internal ((_, c) :: _) -> loop c (acc + 1)
  in
  loop t.root 1

let check_invariants t =
  let exception Bad of string in
  let fail fmt = Fmt.kstr (fun s -> raise (Bad s)) fmt in
  let rec check page_id ~window ~depth =
    match read_node t page_id with
    | Leaf entries ->
      List.iter
        (fun (r, _) ->
          match window with
          | Some w when not (Rect.encloses w r) ->
            fail "leaf %d entry escapes parent rectangle" page_id
          | _ -> ())
        entries;
      depth
    | Internal entries ->
      if entries = [] then fail "internal %d is empty" page_id;
      let depths =
        List.map
          (fun (r, c) ->
            (match window with
            | Some w when not (Rect.encloses w r) ->
              fail "internal %d entry escapes parent rectangle" page_id
            | _ -> ());
            check c ~window:(Some r) ~depth:(depth + 1))
          entries
      in
      (match depths with
      | d :: rest when List.exists (fun x -> x <> d) rest ->
        fail "internal %d has uneven subtree heights" page_id
      | _ -> ());
      List.hd depths
  in
  match check t.root ~window:None ~depth:0 with
  | _ -> Ok ()
  | exception Bad s -> Error s
