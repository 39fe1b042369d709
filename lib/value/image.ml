type 'a t = { target : 'a; before : string option; after : string option }

let encode enc img =
  let e = Codec.Enc.create () in
  let flag bit = function Some _ -> bit | None -> 0 in
  Codec.Enc.byte e (flag 1 img.before lor flag 2 img.after);
  Option.iter (Codec.Enc.string e) img.before;
  Option.iter (Codec.Enc.string e) img.after;
  enc e img.target;
  Codec.Enc.to_string e

let decode dec s =
  let d = Codec.Dec.of_string s in
  let flags = Codec.Dec.byte d in
  let side bit = if flags land bit <> 0 then Some (Codec.Dec.string d) else None in
  let before = side 1 in
  let after = side 2 in
  { target = dec d; before; after }

let same = Option.equal String.equal

let change enc ~log ~read ~write target f =
  let before = read () in
  let after = f before in
  if not (same before after) then begin
    log (encode enc { target; before; after });
    write after
  end;
  before

let undo ~set img =
  same img.after (set (fun held -> if same held img.after then img.before else held))

let redo ~set img =
  same img.before (set (fun held -> if same held img.before then img.after else held))

let count_delta img =
  match img.before, img.after with
  | None, Some _ -> -1
  | Some _, None -> 1
  | _ -> 0

let presence present = if present then Some "" else None
