open Dmx_value

module Imap = Map.Make (Int)
module Smap = Map.Make (String)

type t = {
  mutable rels : Descriptor.t Imap.t;
  mutable by_name : int Smap.t;
  mutable next_id : int;
  mutable is_dirty : bool;
  path : string option;
}

let create ?path () =
  { rels = Imap.empty; by_name = Smap.empty; next_id = 1; is_dirty = false;
    path }

let canon = String.lowercase_ascii
let dirty t = t.is_dirty
let next_rel_id t = t.next_id

let add_relation t ~rel_name ~schema ~smethod_id ~smethod_desc =
  if Smap.mem (canon rel_name) t.by_name then
    Error (Fmt.str "relation %S already exists" rel_name)
  else begin
    let rel_id = t.next_id in
    t.next_id <- rel_id + 1;
    let desc =
      Descriptor.make ~rel_id ~rel_name ~schema ~smethod_id ~smethod_desc
    in
    t.rels <- Imap.add rel_id desc t.rels;
    t.by_name <- Smap.add (canon rel_name) rel_id t.by_name;
    t.is_dirty <- true;
    Ok desc
  end

let remove_relation t rel_id =
  match Imap.find_opt rel_id t.rels with
  | None -> Error (Fmt.str "no relation with id %d" rel_id)
  | Some desc ->
    t.rels <- Imap.remove rel_id t.rels;
    t.by_name <- Smap.remove (canon desc.Descriptor.rel_name) t.by_name;
    t.is_dirty <- true;
    Ok desc

let find t name =
  Option.bind (Smap.find_opt (canon name) t.by_name) (fun id ->
      Imap.find_opt id t.rels)

let find_by_id t id = Imap.find_opt id t.rels
let relations t = Imap.bindings t.rels |> List.map snd

let set_attachment_slot t ~rel_id ~slot desc =
  match Imap.find_opt rel_id t.rels with
  | None -> invalid_arg (Fmt.str "Catalog: no relation %d" rel_id)
  | Some d ->
    Descriptor.set_attachment_desc d slot desc;
    t.is_dirty <- true

let set_smethod_desc t ~rel_id desc =
  match Imap.find_opt rel_id t.rels with
  | None -> invalid_arg (Fmt.str "Catalog: no relation %d" rel_id)
  | Some d ->
    Descriptor.set_smethod_desc d desc;
    t.is_dirty <- true

(* ---- persistence ---- *)

(* The magic names the descriptor formats. This version would misread
   both older ones, so it refuses them by name: [DMXCATLG] catalogs hold
   hash index descriptors with one page id per bucket, and [DMXCATL2]
   catalogs hold heap, [btree] and [readonly] descriptors with page lists
   and record counts in them, and the page store's size. *)
let magic = "DMXCATL3"
let old_magics = [ "DMXCATLG"; "DMXCATL2" ]

let m_snapshots = Dmx_obs.Metrics.counter "catalog.snapshots"
let m_fsyncs = Dmx_obs.Metrics.counter "catalog.fsyncs"

let fsync fd =
  Unix.fsync fd;
  Dmx_obs.Metrics.incr m_fsyncs

let save t =
  match t.path with
  | None -> ()
  | Some path ->
    let e = Codec.Enc.create ~size:4096 () in
    Codec.Enc.string e magic;
    Codec.Enc.varint e t.next_id;
    Codec.Enc.list e Descriptor.enc (relations t);
    let data = Codec.Enc.to_string e in
    let rec write fd off =
      if off < String.length data then
        write fd (off + Unix.write_substring fd data off (String.length data - off))
    in
    Unix.close (Dmx_wal.Durable.replace ~sync:fsync path (fun fd -> write fd 0));
    Dmx_obs.Metrics.incr m_snapshots;
    t.is_dirty <- false

let load ~path =
  if not (Sys.file_exists path) then create ~path ()
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let data = really_input_string ic n in
    close_in ic;
    let d = Codec.Dec.of_string data in
    (match Codec.Dec.string d with
    | m when m = magic -> ()
    | m when List.mem m old_magics ->
      failwith
        (Fmt.str
           "Catalog.load: %s was written by an older dmx (%s); this version \
            reads %s only"
           path m magic)
    | _ -> failwith (Fmt.str "Catalog.load: %s is not a dmx catalog" path));
    let next_id = Codec.Dec.varint d in
    let descs = Codec.Dec.list d Descriptor.dec in
    let t = create ~path () in
    t.next_id <- next_id;
    List.iter
      (fun (desc : Descriptor.t) ->
        t.rels <- Imap.add desc.rel_id desc t.rels;
        t.by_name <- Smap.add (canon desc.rel_name) desc.rel_id t.by_name)
      descs;
    t.is_dirty <- false;
    t
  end

(* ---- logged operations and their testable undo ---- *)

type op =
  | Create_rel of Descriptor.t
  | Drop_rel of Descriptor.t
  | Set_attachment of {
      rel_id : int;
      slot : int;
      old_desc : string option;
      new_desc : string option;
    }
  | Set_smethod of { rel_id : int; old_desc : string; new_desc : string }

let encode_op op =
  let e = Codec.Enc.create () in
  (match op with
  | Create_rel desc ->
    Codec.Enc.byte e 0;
    Descriptor.enc e desc
  | Drop_rel desc ->
    Codec.Enc.byte e 1;
    Descriptor.enc e desc
  | Set_attachment { rel_id; slot; old_desc; new_desc } ->
    Codec.Enc.byte e 2;
    Codec.Enc.varint e rel_id;
    Codec.Enc.varint e slot;
    Codec.Enc.option e Codec.Enc.string old_desc;
    Codec.Enc.option e Codec.Enc.string new_desc
  | Set_smethod { rel_id; old_desc; new_desc } ->
    Codec.Enc.byte e 3;
    Codec.Enc.varint e rel_id;
    Codec.Enc.string e old_desc;
    Codec.Enc.string e new_desc);
  Codec.Enc.to_string e

let decode_op data =
  let d = Codec.Dec.of_string data in
  match Codec.Dec.byte d with
  | 0 -> Create_rel (Descriptor.dec d)
  | 1 -> Drop_rel (Descriptor.dec d)
  | 2 ->
    let rel_id = Codec.Dec.varint d in
    let slot = Codec.Dec.varint d in
    let old_desc = Codec.Dec.option d Codec.Dec.string in
    let new_desc = Codec.Dec.option d Codec.Dec.string in
    Set_attachment { rel_id; slot; old_desc; new_desc }
  | 3 ->
    let rel_id = Codec.Dec.varint d in
    let old_desc = Codec.Dec.string d in
    let new_desc = Codec.Dec.string d in
    Set_smethod { rel_id; old_desc; new_desc }
  | n -> failwith (Fmt.str "Catalog.decode_op: bad tag %d" n)

let undo_op t = function
  | Create_rel desc ->
    (* Remove if present; never applied (pre-crash, un-forced) is a no-op. *)
    ignore (remove_relation t desc.Descriptor.rel_id)
  | Drop_rel desc ->
    if Imap.mem desc.Descriptor.rel_id t.rels then ()
    else begin
      t.rels <- Imap.add desc.Descriptor.rel_id desc t.rels;
      t.by_name <-
        Smap.add (canon desc.Descriptor.rel_name) desc.Descriptor.rel_id
          t.by_name;
      t.next_id <- max t.next_id (desc.Descriptor.rel_id + 1);
      t.is_dirty <- true
    end
  | Set_attachment { rel_id; slot; old_desc; _ } -> begin
    match Imap.find_opt rel_id t.rels with
    | None -> ()  (* relation gone: nothing to restore *)
    | Some d ->
      Descriptor.set_attachment_desc d slot old_desc;
      t.is_dirty <- true
  end
  | Set_smethod { rel_id; old_desc; _ } -> begin
    match Imap.find_opt rel_id t.rels with
    | None -> ()
    | Some d ->
      Descriptor.set_smethod_desc d old_desc;
      t.is_dirty <- true
  end
