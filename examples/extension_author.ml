(* Writing new data management extensions.

   The paper's whole point: new storage methods and attachment types are
   alternative implementations of the generic abstractions, written by
   "sophisticated personnel at the factory" and linked into the system. This
   example authors two extensions from outside the built-in suite and runs
   them through the unchanged common machinery:

   - a RING storage method: a bounded main-memory relation that keeps the
     most recent [capacity] records (telemetry-style hot data);
   - a BLOOM attachment: maintains a Bloom filter over a field as a side
     effect of modifications ("attachments ... may have associated storage
     [to] maintain ... precomputed function values").

   Run with: dune exec examples/extension_author.exe *)

open Dmx_value
open Dmx_core
module Db = Dmx_db.Db
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Fmt.str "%s: %s" what (Error.to_string e))

let refused what = function
  | Ok _ -> failwith (what ^ " was accepted")
  | Error e -> Fmt.pr "%s refused: %s@." what (Error.to_string e)

(* ---------------------------------------------------------------------- *)
(* A new storage method: bounded ring of recent records.                   *)
(* ---------------------------------------------------------------------- *)

(* The author of a storage method writes its procedures and applies
   [Registry.Smethod] to its name, which supplies the registered id, an
   idempotent [register] and [log] under the method's id: the same rule
   [Attach_util.Slot] gives an attachment type below. The method declares
   its DDL attributes in [attr_specs]; the common DDL checks every list
   against them before [create] runs, so [create] only interprets the
   list. *)
module Ring_method = struct
  include Registry.Smethod (struct
    let name = "ring"
  end)

  module Imap = Map.Make (Int)

  type store = {
    mutable records : Record.t Imap.t;
    mutable next_seq : int;
    capacity : int;
  }

  let stores : (int, store) Hashtbl.t = Hashtbl.create 4

  let store_of rel_id capacity =
    match Hashtbl.find_opt stores rel_id with
    | Some s -> s
    | None ->
      let s = { records = Imap.empty; next_seq = 1; capacity } in
      Hashtbl.replace stores rel_id s;
      s

  let capacity_of desc =
    int_of_string (String.trim desc)

  let key_of seq = Record_key.rid ~page:0 ~slot:seq

  let seq_of = function
    | Record_key.Rid { page = 0; slot } -> Some slot
    | _ -> None

  module Impl = struct
    let name = "ring"
    let attr_specs = [ Attrlist.spec ~required:true "capacity" Attrlist.A_int ]

    let create _ctx ~rel_id _schema attrs =
      match Attrlist.get_int attrs "capacity" with
      | Ok (Some n) when n > 0 ->
        ignore (store_of rel_id n);
        Ok (string_of_int n)
      | _ -> Error (Error.Ddl_error "ring: capacity must be a positive integer")

    let destroy _ctx ~rel_id ~smethod_desc:_ = Hashtbl.remove stores rel_id

    let insert _ctx (desc : Descriptor.t) record =
      let s = store_of desc.rel_id (capacity_of desc.smethod_desc) in
      let seq = s.next_seq in
      s.next_seq <- seq + 1;
      s.records <- Imap.add seq record s.records;
      (* evict the oldest beyond capacity *)
      if Imap.cardinal s.records > s.capacity then begin
        let oldest, _ = Imap.min_binding s.records in
        s.records <- Imap.remove oldest s.records
      end;
      (* ring contents are transient: nothing is logged, like temporaries *)
      Ok (key_of seq)

    let fetch _ctx (desc : Descriptor.t) key ?fields () =
      match seq_of key with
      | None -> None
      | Some seq ->
        Option.map
          (fun r ->
            match fields with None -> r | Some fs -> Record.project r fs)
          (Imap.find_opt seq
             (store_of desc.rel_id (capacity_of desc.smethod_desc)).records)

    let delete _ctx (desc : Descriptor.t) key =
      let s = store_of desc.rel_id (capacity_of desc.smethod_desc) in
      match seq_of key with
      | Some seq -> begin
        match Imap.find_opt seq s.records with
        | Some r ->
          s.records <- Imap.remove seq s.records;
          Ok r
        | None -> Error (Error.Key_not_found (Record_key.to_string key))
      end
      | None -> Error (Error.Key_not_found (Record_key.to_string key))

    let update _ctx (desc : Descriptor.t) key record =
      let s = store_of desc.rel_id (capacity_of desc.smethod_desc) in
      match seq_of key with
      | Some seq when Imap.mem seq s.records ->
        s.records <- Imap.add seq record s.records;
        Ok key
      | _ -> Error (Error.Key_not_found (Record_key.to_string key))

    let key_fields _ = None

    let record_count _ctx (desc : Descriptor.t) =
      Imap.cardinal
        (store_of desc.rel_id (capacity_of desc.smethod_desc)).records

    let scan _ctx (desc : Descriptor.t) ?lo:_ ?hi:_ ?filter () =
      let s = store_of desc.rel_id (capacity_of desc.smethod_desc) in
      let pos = ref 0 in
      Scan_help.filtered ?filter
        ~next:(fun () ->
          match Imap.find_first_opt (fun seq -> seq > !pos) s.records with
          | None -> None
          | Some (seq, r) ->
            pos := seq;
            Some (key_of seq, r))
        ~close:(fun () -> ())
        ~capture:(fun () ->
          let saved = !pos in
          fun () -> pos := saved)
        ()

    let estimate_scan ctx (desc : Descriptor.t) ~eligible =
      let rows = float_of_int (record_count ctx desc) in
      {
        Cost.cost = Cost.make ~io:0. ~cpu:rows;
        est_rows = rows;
        matched = eligible;
        residual = [];
        ordered_by = None;
      }

    let undo _ctx ~rel_id:_ ~data:_ = ()
    let redo _ctx ~rel_id:_ ~data:_ = ()
  end

  let register () = register ~redo:Impl.redo (module Impl)
end

(* ---------------------------------------------------------------------- *)
(* A new attachment type: Bloom filter over one field.                     *)
(* ---------------------------------------------------------------------- *)

(* The author of an attachment type writes what one instance records in the
   relation descriptor -- a payload type and its codec -- and applies
   [Attach_util.Slot] to it. [Slot] supplies everything else about the
   descriptor slot that all instances of the type share: the registered id
   and [register] (the ring's rule above), the instance list with its
   numbers, names and encoding, the DDL rules (a duplicate instance name is
   a DDL error, dropping an unknown one is [No_such_attachment], the slot
   goes NULL with its last instance, a whole [drop_instance]) and lookup by
   name or number. The common DDL validates the attribute list against
   [attr_specs], as for the ring. What remains is the attached
   procedures. *)
module Bloom_attachment = struct
  (* Filter bits live in process memory keyed by (rel, instance name); the
     descriptor records field + size. A Bloom filter is conservative: undo
     and delete need not clear bits. *)
  let filters : (int * string, Bytes.t) Hashtbl.t = Hashtbl.create 4

  type inst = { field : int; bits : int }

  module Slot = Dmx_attach.Attach_util.Slot (struct
    let name = "bloom"

    type t = inst

    let enc e i =
      Codec.Enc.varint e i.field;
      Codec.Enc.varint e i.bits

    let dec d =
      let field = Codec.Dec.varint d in
      let bits = Codec.Dec.varint d in
      { field; bits }
  end)

  let filter_key rel_id name = (rel_id, String.lowercase_ascii name)

  let filter_of rel_id name inst =
    let key = filter_key rel_id name in
    match Hashtbl.find_opt filters key with
    | Some b -> b
    | None ->
      let b = Bytes.make ((inst.bits + 7) / 8) '\000' in
      Hashtbl.replace filters key b;
      b

  let set_bit b i =
    let byte = i / 8 and bit = i mod 8 in
    Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl bit)))

  let get_bit b i =
    let byte = i / 8 and bit = i mod 8 in
    Char.code (Bytes.get b byte) land (1 lsl bit) <> 0

  let hashes v bits =
    let h1 = Value.hash v land max_int in
    let h2 = Hashtbl.hash (Value.to_string v) land max_int in
    [ h1 mod bits; (h1 + h2) mod bits; (h1 + (3 * h2)) mod bits ]

  let add rel_id name inst record =
    let v = record.(inst.field) in
    if v <> Value.Null then
      List.iter (set_bit (filter_of rel_id name inst)) (hashes v inst.bits)

  module Impl = struct
    let name = "bloom"

    let attr_specs =
      [
        Attrlist.spec ~required:true "field" Attrlist.A_string;
        Attrlist.spec "bits" Attrlist.A_int;
      ]

    let create_instance ctx (desc : Descriptor.t) ~instance_name attrs =
      Slot.add desc ~instance_name ~what:"bloom filter" (fun () ->
          match
            Dmx_attach.Attach_util.parse_fields desc.schema
              (Option.get (Attrlist.find attrs "field"))
          with
          | Error e -> Error (Error.Ddl_error e)
          | Ok [| field |] ->
            let bits =
              match Attrlist.get_int attrs "bits" with
              | Ok (Some n) when n > 64 -> n
              | _ -> 4096
            in
            let inst = { field; bits } in
            (* build from existing records, over any bits a dropped
               namesake left behind *)
            Hashtbl.remove filters (filter_key desc.rel_id instance_name);
            Dmx_attach.Attach_util.scan_relation ctx desc (fun _ record ->
                add desc.rel_id instance_name inst record);
            Ok inst
          | Ok _ -> Error (Error.Ddl_error "bloom: exactly one field"))

    let drop_instance _ctx = Slot.drop_instance

    let on_insert _ctx (desc : Descriptor.t) ~slot _key record =
      Slot.each slot (fun _no name inst ->
          Ok (add desc.rel_id name inst record))

    let on_update _ctx (desc : Descriptor.t) ~slot ~old_key:_ ~new_key:_
        ~old_record:_ ~new_record =
      Slot.each slot (fun _no name inst ->
          Ok (add desc.rel_id name inst new_record))

    (* deletions leave bits set: the filter stays a conservative superset *)
    let on_delete _ctx _desc ~slot:_ _key _record = Ok ()
    let lookup _ctx _desc ~slot:_ ~instance:_ ~key:_ = []
    let scan _ctx _desc ~slot:_ ~instance:_ ?lo:_ ?hi:_ () = None
    let estimate _ctx _desc ~slot:_ ~eligible:_ = []
    let undo _ctx ~rel_id:_ ~data:_ = ()
    let redo _ctx ~rel_id:_ ~data:_ = ()
  end

  let register () = Slot.register ~redo:Impl.redo (module Impl)

  let maybe_contains (desc : Descriptor.t) ~name v =
    match Slot.by_name desc name with
    | None -> true
    | Some (_, inst) ->
      let b = filter_of desc.rel_id name inst in
      List.for_all (get_bit b) (hashes v inst.bits)
end

(* ---------------------------------------------------------------------- *)

let () =
  (* factory time: built-ins first (stable ids), then our extensions *)
  Db.register_defaults ();
  let ring_id = Ring_method.register () in
  let bloom_id = Bloom_attachment.register () in
  Fmt.pr "registered new storage method %S as id %d@." "ring" ring_id;
  Fmt.pr "registered new attachment type %S as id %d@.@." "bloom" bloom_id;

  let db = Db.open_database () in
  let telemetry =
    Schema.make_exn
      [
        Schema.column ~nullable:false "seq" Value.Tint;
        Schema.column "sensor" Value.Tstring;
        Schema.column "reading" Value.Tfloat;
      ]
  in

  ignore
    (ok "ring demo"
       (Db.with_txn db (fun ctx ->
            ignore
              (ok "create ring"
                 (Db.create_relation db ctx ~name:"telemetry" ~schema:telemetry
                    ~storage_method:"ring" ~attrs:[ ("capacity", "5") ] ()));
            for i = 1 to 12 do
              ignore
                (ok "ins"
                   (Db.insert db ctx ~relation:"telemetry"
                      [|
                        Value.int i;
                        String (Fmt.str "s%d" (i mod 3));
                        Float (float_of_int i *. 1.5);
                      |]))
            done;
            let rows =
              ok "q" (Db.query db ctx (Dmx_query.Query.select "telemetry") ())
            in
            Fmt.pr "ring relation after 12 inserts (capacity 5): %d records@."
              (List.length rows);
            List.iter (fun r -> Fmt.pr "  %a@." Record.pp r) rows;
            (* the common DDL checks the list against the ring's specs *)
            refused "a ring with an unknown attribute"
              (Db.create_relation db ctx ~name:"bad_ring" ~schema:telemetry
                 ~storage_method:"ring"
                 ~attrs:[ ("capacity", "5"); ("bogus", "1") ]
                 ());
            Ok ())));

  let users =
    Schema.make_exn
      [
        Schema.column ~nullable:false "id" Value.Tint;
        Schema.column "email" Value.Tstring;
      ]
  in
  ignore
    (ok "bloom demo"
       (Db.with_txn db (fun ctx ->
            ignore
              (ok "create users"
                 (Db.create_relation db ctx ~name:"users" ~schema:users ()));
            ok "bloom"
              (Db.create_attachment db ctx ~relation:"users"
                 ~attachment_type:"bloom" ~name:"email_bloom"
                 ~attrs:[ ("field", "email") ] ());
            for i = 1 to 200 do
              ignore
                (ok "ins"
                   (Db.insert db ctx ~relation:"users"
                      [| Value.int i; String (Fmt.str "user%d@example.com" i) |]))
            done;
            let desc = ok "rel" (Db.relation db ctx "users") in
            let probe v =
              Bloom_attachment.maybe_contains desc ~name:"email_bloom"
                (String v)
            in
            Fmt.pr "@.bloom(user7@example.com)    = %b (present)@."
              (probe "user7@example.com");
            Fmt.pr "bloom(user200@example.com)  = %b (present)@."
              (probe "user200@example.com");
            let false_hits = ref 0 in
            for i = 1000 to 1999 do
              if probe (Fmt.str "ghost%d@example.com" i) then incr false_hits
            done;
            Fmt.pr "bloom false positives on 1000 absent keys: %d@."
              !false_hits;
            (* the instance-list rules come with [Slot] *)
            refused "duplicate bloom"
              (Db.create_attachment db ctx ~relation:"users"
                 ~attachment_type:"bloom" ~name:"email_bloom"
                 ~attrs:[ ("field", "id") ] ());
            refused "dropping an unknown bloom"
              (Db.drop_attachment db ctx ~relation:"users"
                 ~attachment_type:"bloom" ~name:"nosuch");
            Ok ())));
  Db.close db;
  Fmt.pr "@.extension_author: done@."
