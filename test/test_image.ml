(* One table-driven property over every change-image user outside the
   B-tree (its Map model covers it): random operations through the generic
   dispatch interleaved with undos of logged images, checked against a model
   of the side each target holds. Targets are kept as the encoded tail of
   the image, so the model needs no per-extension target type. *)
open Dmx_value
open Dmx_core
open Test_util
module Ddl = Dmx_ddl.Ddl
module Relation = Dmx_core.Relation
module Descriptor = Dmx_catalog.Descriptor
module Log_record = Dmx_wal.Log_record

type user = {
  name : string;
  storage_method : string;
  attachment : (string * (string * string) list) option;
  source : unit -> Log_record.source;
  undo : Ctx.t -> rel_id:int -> data:string -> unit;
  modifies : bool;  (* delete and update besides insert *)
  observe : Ctx.t -> Descriptor.t -> Codec.Dec.t -> string option;
      (* the side the target encoded at the cursor holds now *)
}

let payload record = Bytes.to_string (Codec.encode_record record)

let observe_rid fetch ctx desc d =
  let page = Codec.Dec.varint d in
  let slot = Codec.Dec.varint d in
  Option.map payload (fetch ctx desc (Record_key.rid ~page ~slot) ())

(* An index entry (instance, key, record key) is present when a lookup of
   its key returns its record key. *)
let observe_entry id lookup dec_key ctx desc d =
  let no = Codec.Dec.varint d in
  let key = dec_key d in
  let reckey = Record_key.dec d in
  let slot = Option.get (Descriptor.attachment_desc desc (id ())) in
  Image.presence
    (List.exists (Record_key.equal reckey)
       (lookup ctx desc ~slot ~instance:no ~key))

let smethod id = fun () -> Log_record.Smethod (id ())
let attachment id = fun () -> Log_record.Attachment (id ())

let users =
  let module H = Dmx_smethod.Heap in
  let module R = Dmx_smethod.Readonly in
  let module M = Dmx_smethod.Memory in
  let module Ri = Dmx_attach.Rtree_index in
  let module Hi = Dmx_attach.Hash_index in
  [
    {
      name = "heap";
      storage_method = "heap";
      attachment = None;
      source = smethod H.id;
      undo = H.undo;
      modifies = true;
      observe = observe_rid (fun ctx desc k () -> H.fetch ctx desc k ());
    };
    {
      name = "readonly";
      storage_method = "readonly";
      attachment = None;
      source = smethod R.id;
      undo = R.undo;
      modifies = false;
      observe = observe_rid (fun ctx desc k () -> R.fetch ctx desc k ());
    };
    {
      name = "memory";
      storage_method = "memory";
      attachment = None;
      source = smethod M.id;
      undo = M.undo;
      modifies = true;
      observe =
        (fun ctx desc d ->
          let seq = Codec.Dec.varint d in
          Option.map payload
            (M.fetch ctx desc (Record_key.rid ~page:0 ~slot:seq) ()));
    };
    {
      name = "rtree_index";
      storage_method = "heap";
      attachment = Some ("rtree_index", [ ("rect", "xlo,ylo,xhi,yhi") ]);
      source = attachment Ri.id;
      undo = Ri.undo;
      modifies = true;
      (* an R-tree lookup returns the rectangles its key encloses; every
         generated rectangle is 3 x 2, so that is only the key itself *)
      observe =
        observe_entry Ri.id Ri.lookup (fun d ->
            let r = Dmx_rtree.Rect.dec d in
            [| vf r.xlo; vf r.ylo; vf r.xhi; vf r.yhi |]);
    };
    {
      name = "hash_index";
      storage_method = "heap";
      attachment = Some ("hash_index", [ ("fields", "dept") ]);
      source = attachment Hi.id;
      undo = Hi.undo;
      modifies = true;
      observe = observe_entry Hi.id Hi.lookup Codec.Dec.record;
    };
  ]

(* An image with its target as the raw tail the extension encoded. *)
let split data =
  let img = Image.decode ignore data in
  let head = String.length (Image.encode (fun _ () -> ()) img) in
  { img with target = String.sub data head (String.length data - head) }

let join img =
  Image.encode
    (fun e tail -> String.iter (fun c -> Codec.Enc.byte e (Char.code c)) tail)
    img

type step =
  | Apply of int * int  (* operation selector, value *)
  | Apply_undo of int * int  (* apply, then undo its images at once *)
  | Undo of int  (* undo an earlier image, whatever the target holds now *)
  | Unlanded of int  (* undo an image logged but never written *)

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Apply (k, v)) nat (int_range 0 60));
        (2, map2 (fun k v -> Apply_undo (k, v)) nat (int_range 0 60));
        (3, map (fun j -> Undo j) nat);
        (1, map (fun j -> Unlanded j) nat);
      ])

let pp_step = function
  | Apply (k, v) -> Fmt.str "apply(%d,%d)" k v
  | Apply_undo (k, v) -> Fmt.str "apply_undo(%d,%d)" k v
  | Undo j -> Fmt.str "undo(%d)" j
  | Unlanded j -> Fmt.str "unlanded(%d)" j

let arb_steps =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 40) step_gen)
    ~print:(fun steps -> String.concat "; " (List.map pp_step steps))

let schema =
  Schema.make_exn
    (Schema.column ~nullable:false "id" Value.Tint
    :: Schema.column "dept" Value.Tstring
    :: List.map
         (fun c -> Schema.column c Value.Tint)
         [ "xlo"; "ylo"; "xhi"; "yhi" ])

let record_of v =
  let x = v mod 7 and y = v mod 5 in
  [| vi v; vs (Fmt.str "d%d" (v mod 4)); vi x; vi y; vi (x + 3); vi (y + 2) |]

let run user steps =
  let services = fresh_services () in
  let ctx = Services.begin_txn services in
  ignore
    (check_ok "create"
       (Ddl.create_relation ctx ~name:"t" ~schema
          ~storage_method:user.storage_method ()));
  Option.iter
    (fun (ty, attrs) ->
      ignore
        (check_ok ty
           (Ddl.create_attachment ctx ~relation:"t" ~attachment_type:ty
              ~name:ty ~attrs ())))
    user.attachment;
  let desc () = check_ok "find" (Ddl.find_relation ctx "t") in
  let source = user.source () in
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) user.name in
  (* the side each target held after the last step, by encoded tail *)
  let model : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let held tail = Option.value ~default:None (Hashtbl.find_opt model tail) in
  let logged = ref [||] in
  let images () =
    ctx.Ctx.txn.Dmx_txn.Txn.chain
    |> List.rev
    |> List.filter_map (fun (r : Log_record.t) ->
           match r.kind with
           (* an image's flags byte is below 4; a source may log records
              of its own beside them (the heap's directory appends) *)
           | Log_record.Ext { source = s; data; _ }
             when s = source && Char.code data.[0] < 4 ->
             Some data
           | _ -> None)
  in
  let check what =
    let desc = desc () in
    Hashtbl.iter
      (fun tail side ->
        let got = user.observe ctx desc (Codec.Dec.of_string tail) in
        if got <> side then
          fail "%s: target holds %s, model %s" what
            (Option.value ~default:"none" got)
            (Option.value ~default:"none" side))
      model
  in
  (* undo one image through the extension; the model reverses it only when
     the target holds exactly its after side *)
  let undo what data =
    let img = split data in
    user.undo ctx ~rel_id:(desc ()).Descriptor.rel_id ~data;
    if held img.target = img.after then Hashtbl.replace model img.target img.before;
    check what
  in
  let apply k v =
    let desc = desc () in
    let keys () =
      Scan_help.record_scan_to_list (check_ok "scan" (Relation.scan ctx desc ()))
      |> List.map fst
    in
    let existing () =
      match keys () with [] -> None | ks -> Some (List.nth ks (v mod List.length ks))
    in
    (match if user.modifies then k mod 3 else 0 with
    | 1 ->
      Option.iter
        (fun key -> ignore (check_ok "delete" (Relation.delete ctx desc key)))
        (existing ())
    | 2 ->
      Option.iter
        (fun key ->
          ignore (check_ok "update" (Relation.update ctx desc key (record_of v))))
        (existing ())
    | _ -> ignore (check_ok "insert" (Relation.insert ctx desc (record_of v))));
    let all = Array.of_list (images ()) in
    let fresh = Array.sub all (Array.length !logged) (Array.length all - Array.length !logged) in
    logged := all;
    Array.iter
      (fun data ->
        let img = split data in
        if held img.target <> img.before then fail "apply: before side is not the held one";
        Hashtbl.replace model img.target img.after)
      fresh;
    check "apply";
    fresh
  in
  let pick j = let n = Array.length !logged in if n = 0 then None else Some !logged.(j mod n) in
  List.iter
    (function
      | Apply (k, v) -> ignore (apply k v)
      | Apply_undo (k, v) ->
        let before = Hashtbl.copy model in
        let fresh = apply k v in
        for i = Array.length fresh - 1 downto 0 do
          undo "undo after apply" fresh.(i)
        done;
        Hashtbl.iter
          (fun tail side ->
            if Option.value ~default:None (Hashtbl.find_opt before tail) <> side then
              fail "undo after apply is not the identity")
          model
      | Undo j -> Option.iter (undo "undo") (pick j)
      | Unlanded j ->
        (* forge the image of a change logged but never written: the target
           still holds its before side *)
        Option.iter
          (fun data ->
            let img = split data in
            let now = held img.target in
            let never =
              if img.before = Some "" || img.after = Some "" then
                Image.presence (now = None)
              else Some "\255never written"
            in
            undo "unlanded" (join { img with before = now; after = never }))
          (pick j))
    steps;
  (* roll everything back, newest first, then once more: the second pass
     must change nothing *)
  let rollback what = for i = Array.length !logged - 1 downto 0 do undo what !logged.(i) done in
  rollback "rollback";
  let once = Hashtbl.copy model in
  rollback "rollback again";
  Hashtbl.iter
    (fun tail side -> if Hashtbl.find once tail <> side then fail "undoing twice differs from once")
    model;
  Services.abort services ctx;
  true

let prop user =
  QCheck.Test.make ~count:40
    ~name:(Fmt.str "%s: image undo is state-checked" user.name)
    arb_steps (run user)

let suite = List.map (fun u -> QCheck_alcotest.to_alcotest (prop u)) users
