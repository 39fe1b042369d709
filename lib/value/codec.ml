module Enc = struct
  type t = Buffer.t

  let create ?(size = 64) () = Buffer.create size
  let byte t n = Buffer.add_char t (Char.chr (n land 0xff))

  let varint t n =
    if n < 0 then invalid_arg "Codec.Enc.varint: negative";
    let rec loop n =
      if n < 0x80 then byte t n
      else begin
        byte t (0x80 lor (n land 0x7f));
        loop (n lsr 7)
      end
    in
    loop n

  let int64 t i =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 i;
    Buffer.add_bytes t b

  let float t f = int64 t (Int64.bits_of_float f)
  let bool t b = byte t (if b then 1 else 0)

  let string t s =
    varint t (String.length s);
    Buffer.add_string t s

  let bytes t b = string t (Bytes.to_string b)

  (* Tags mirror Value.rank so encodings stay ordered-by-type. *)
  let value t v =
    match (v : Value.t) with
    | Null -> byte t 0
    | Bool b ->
      byte t 1;
      bool t b
    | Int i ->
      byte t 2;
      int64 t i
    | Float f ->
      byte t 3;
      float t f
    | String s ->
      byte t 4;
      string t s

  let record t r =
    varint t (Array.length r);
    Array.iter (value t) r

  let list t f xs =
    varint t (List.length xs);
    List.iter (f t) xs

  let option t f = function
    | None -> byte t 0
    | Some x ->
      byte t 1;
      f t x

  let length t = Buffer.length t
  let blit t dst pos = Buffer.blit t 0 dst pos (Buffer.length t)
  let to_bytes t = Buffer.to_bytes t
  let to_string t = Buffer.contents t
end

module Dec = struct
  type t = { buf : string; mutable pos : int; limit : int }

  let of_string s = { buf = s; pos = 0; limit = String.length s }
  let of_bytes b = of_string (Bytes.to_string b)

  let of_string_span s ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Codec.Dec.of_string_span: span out of bounds";
    { buf = s; pos; limit = pos + len }

  let need t n =
    if t.pos + n > t.limit then failwith "Codec.Dec: truncated input"

  let byte t =
    need t 1;
    let c = Char.code t.buf.[t.pos] in
    t.pos <- t.pos + 1;
    c

  (* Top-level recursion, not a local closure: node searches read a varint
     per key and payload and must not allocate. *)
  let rec varint_from t shift acc =
    let b = byte t in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint_from t (shift + 7) acc

  let varint t = varint_from t 0 0

  let int64 t =
    need t 8;
    let i = Bytes.get_int64_le (Bytes.unsafe_of_string t.buf) t.pos in
    t.pos <- t.pos + 8;
    i

  let float t = Int64.float_of_bits (int64 t)

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | n -> failwith (Fmt.str "Codec.Dec.bool: bad tag %d" n)

  let string t =
    let n = varint t in
    need t n;
    let s = String.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    s

  let bytes t = Bytes.of_string (string t)

  let skip_string t =
    let n = varint t in
    need t n;
    t.pos <- t.pos + n

  let value t : Value.t =
    match byte t with
    | 0 -> Null
    | 1 -> Bool (bool t)
    | 2 -> Int (int64 t)
    | 3 -> Float (float t)
    | 4 -> String (string t)
    | n -> failwith (Fmt.str "Codec.Dec.value: bad tag %d" n)

  (* Advance past one encoded value without materializing it — the late
     materialization path of vectorized scans skips the fields a filter
     does not read. *)
  let skip_value t =
    match byte t with
    | 0 -> ()
    | 1 ->
      need t 1;
      t.pos <- t.pos + 1
    | 2 | 3 ->
      need t 8;
      t.pos <- t.pos + 8
    | 4 -> skip_string t
    | n -> failwith (Fmt.str "Codec.Dec.skip_value: bad tag %d" n)

  (* Byte-wise in place, in String.compare order: unsigned bytes, then the
     shorter string first. *)
  let compare_string t y =
    let n = varint t in
    need t n;
    let m = String.length y in
    let i = ref 0 and c = ref 0 in
    while !c = 0 && !i < n && !i < m do
      c :=
        Char.compare
          (String.unsafe_get t.buf (t.pos + !i))
          (String.unsafe_get y !i);
      incr i
    done;
    t.pos <- t.pos + n;
    if !c <> 0 then !c else Int.compare n m

  (* Comparisons spelled out on unboxed operands: the library compare
     functions would box the decoded int64 or float. Float.compare's order
     puts NaN below every other float and equal to itself. *)
  let compare_value t (v : Value.t) =
    let tag = byte t in
    match tag, v with
    | 0, Null -> 0
    | 1, Bool y -> Bool.compare (bool t) y
    | 2, Int y ->
      need t 8;
      let x = Bytes.get_int64_le (Bytes.unsafe_of_string t.buf) t.pos in
      t.pos <- t.pos + 8;
      if x < y then -1 else if x > y then 1 else 0
    | 3, Float y ->
      need t 8;
      let x =
        Int64.float_of_bits
          (Bytes.get_int64_le (Bytes.unsafe_of_string t.buf) t.pos)
      in
      t.pos <- t.pos + 8;
      if x < y then -1
      else if x > y then 1
      else if x = y then 0
      else Bool.compare (x = x) (y = y)
    | 4, String y -> compare_string t y
    | _ ->
      t.pos <- t.pos - 1;
      skip_value t;
      Int.compare tag (Value.rank v)

  let record t =
    let n = varint t in
    Array.init n (fun _ -> value t)

  let skip_record t =
    for _ = 1 to varint t do
      skip_value t
    done

  let list t f =
    let n = varint t in
    List.init n (fun _ -> f t)

  let option t f =
    match byte t with
    | 0 -> None
    | 1 -> Some (f t)
    | n -> failwith (Fmt.str "Codec.Dec.option: bad tag %d" n)

  let offset t = t.pos

  let seek t pos =
    if pos < 0 || pos > t.limit then invalid_arg "Codec.Dec.seek: out of bounds";
    t.pos <- pos

  let at_end t = t.pos >= t.limit
  let remaining t = t.limit - t.pos
end

(* Ends of encodings read off their lengths in place: stepping over an
   encoded record this way takes a few byte reads, not a decoder call per
   value. *)
let rec varint_end s p =
  if Char.code s.[p] < 0x80 then p + 1 else varint_end s (p + 1)

let rec varint_at s p shift acc =
  let b = Char.code s.[p] in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else varint_at s (p + 1) (shift + 7) acc

let value_end s p =
  match s.[p] with
  | '\000' -> p + 1
  | '\001' -> p + 2
  | '\002' | '\003' -> p + 9
  | '\004' ->
    let n = Char.code s.[p + 1] in
    if n < 0x80 then p + 2 + n
    else varint_end s (p + 1) + varint_at s (p + 1) 0 0
  | c -> failwith (Fmt.str "Codec.value_end: bad tag %d" (Char.code c))

let rec values_end s p n =
  if n = 0 then p else values_end s (value_end s p) (n - 1)

let record_end s p =
  let n = Char.code s.[p] in
  if n < 0x80 then values_end s (p + 1) n
  else values_end s (varint_end s p) (varint_at s p 0 0)

let encode_record r =
  let e = Enc.create () in
  Enc.record e r;
  Enc.to_bytes e

let decode_record b = Dec.record (Dec.of_bytes b)

let encode_schema s =
  let e = Enc.create () in
  Enc.list e
    (fun e (c : Schema.column) ->
      Enc.string e c.name;
      Enc.string e (Value.ty_to_string c.ty);
      Enc.bool e c.nullable)
    (Schema.columns s);
  Enc.to_bytes e

let decode_schema b =
  let d = Dec.of_bytes b in
  let cols =
    Dec.list d (fun d ->
        let name = Dec.string d in
        let ty =
          match Value.ty_of_string (Dec.string d) with
          | Some ty -> ty
          | None -> failwith "Codec.decode_schema: bad type"
        in
        let nullable = Dec.bool d in
        { Schema.name; ty; nullable })
  in
  Schema.make_exn cols
