type t =
  | Rid of { page : int; slot : int }
  | Fields of Value.t array

let rid ~page ~slot = Rid { page; slot }
let fields vs = Fields vs

let compare a b =
  match a, b with
  | Rid a, Rid b ->
    let c = Int.compare a.page b.page in
    if c <> 0 then c else Int.compare a.slot b.slot
  | Fields a, Fields b ->
    let la = Array.length a and lb = Array.length b in
    let rec loop i =
      if i >= la || i >= lb then Int.compare la lb
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0
  | Rid _, Fields _ -> -1
  | Fields _, Rid _ -> 1

let equal a b = compare a b = 0

let hash = function
  | Rid { page; slot } -> Hashtbl.hash (page, slot)
  | Fields vs -> Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 vs

let enc e = function
  | Rid { page; slot } ->
    Codec.Enc.byte e 0;
    Codec.Enc.varint e page;
    Codec.Enc.varint e slot
  | Fields vs ->
    Codec.Enc.byte e 1;
    Codec.Enc.record e vs

let dec d =
  match Codec.Dec.byte d with
  | 0 ->
    let page = Codec.Dec.varint d in
    let slot = Codec.Dec.varint d in
    Rid { page; slot }
  | 1 -> Fields (Codec.Dec.record d)
  | n -> failwith (Fmt.str "Record_key.dec: bad tag %d" n)

let end_at s p =
  if s.[p] = '\000' then Codec.varint_end s (Codec.varint_end s (p + 1))
  else Codec.record_end s (p + 1)

let encode t =
  let e = Codec.Enc.create () in
  enc e t;
  Codec.Enc.to_bytes e

let decode b = dec (Codec.Dec.of_bytes b)

let pp ppf = function
  | Rid { page; slot } -> Fmt.pf ppf "rid(%d,%d)" page slot
  | Fields vs -> Fmt.pf ppf "key(%a)" Fmt.(array ~sep:(any ",") Value.pp) vs

let to_string t = Fmt.str "%a" pp t
