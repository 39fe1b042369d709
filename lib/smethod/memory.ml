open Dmx_value
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist

(* Per-relation in-process store. The sequence number is the record key
   (represented as a RID with page 0). *)
module Imap = Map.Make (Int)

type store = { mutable records : Record.t Imap.t; mutable next_seq : int }

let seq_of = function
  | Record_key.Rid { page = 0; slot } -> Some slot
  | Record_key.Rid _ | Record_key.Fields _ -> None

let key_of_seq seq = Record_key.rid ~page:0 ~slot:seq

(* ---- sequence-number images ---- *)

let encode record = Bytes.to_string (Codec.encode_record record)

(* The read-modify-write of one sequence number: held records are imaged
   as their encoding. Reinstating a sequence number keeps [next_seq] past
   it. *)
let set_seq s seq ~log f =
  Image.change Codec.Enc.varint ~log
    ~read:(fun () -> Option.map encode (Imap.find_opt seq s.records))
    ~write:(function
      | None -> s.records <- Imap.remove seq s.records
      | Some p ->
        s.records <-
          Imap.add seq (Codec.Dec.record (Codec.Dec.of_string p)) s.records;
        s.next_seq <- max s.next_seq (seq + 1))
    seq f

module type S = sig
  include Intf.STORAGE_METHOD

  val register : unit -> int
  val id : unit -> int
end

module Make (N : sig
  val name : string
  val logged : bool
end) : S = struct
  include Registry.Smethod (N)

  (* The stores of one database, by relation id: state of the database's
     environment, so another database's relation [rel_id] is another
     store, and a reopened database starts with none. *)
  let stores_key : (int, store) Hashtbl.t Dmx_txn.Tmap.key =
    Dmx_txn.Tmap.new_key (N.name ^ ".stores")

  let stores ctx =
    Dmx_txn.Txn_mgr.attr_or_init ctx.Ctx.txn_mgr stores_key (fun () ->
        Hashtbl.create 16)

  let store_of ctx rel_id =
    let stores = stores ctx in
    match Hashtbl.find_opt stores rel_id with
    | Some s -> s
    | None ->
      let s = { records = Imap.empty; next_seq = 1 } in
      Hashtbl.replace stores rel_id s;
      s

  let log = if N.logged then log else fun _ ~rel_id:_ _ -> ()

  module Impl = struct
    let name = N.name
    let attr_specs = []

    let create ctx ~rel_id _schema _attrs =
      ignore (store_of ctx rel_id);
      Ok ""

    let destroy ctx ~rel_id ~smethod_desc =
      ignore smethod_desc;
      Hashtbl.remove (stores ctx) rel_id

    let insert ctx (desc : Descriptor.t) record =
      let s = store_of ctx desc.rel_id in
      let seq = s.next_seq in
      let log = log ctx ~rel_id:desc.rel_id in
      ignore (set_seq s seq ~log (fun _ -> Some (encode record)));
      Ok (key_of_seq seq)

    let fetch ctx (desc : Descriptor.t) key ?fields () =
      match seq_of key with
      | None -> None
      | Some seq -> begin
        match Imap.find_opt seq (store_of ctx desc.rel_id).records with
        | None -> None
        | Some record ->
          Some
            (match fields with
            | None -> record
            | Some fs -> Record.project record fs)
      end

    (* [f] sees the held record's encoding; [None] when the key names none *)
    let modify ctx (desc : Descriptor.t) key f =
      match seq_of key with
      | None -> None
      | Some seq ->
        set_seq (store_of ctx desc.rel_id) seq
          ~log:(log ctx ~rel_id:desc.rel_id) f

    let delete ctx desc key =
      match modify ctx desc key (fun _ -> None) with
      | None -> Error (Error.Key_not_found (Record_key.to_string key))
      | Some p -> Ok (Codec.Dec.record (Codec.Dec.of_string p))

    let update ctx desc key new_record =
      let payload = encode new_record in
      match modify ctx desc key (Option.map (fun _ -> payload)) with
      | None -> Error (Error.Key_not_found (Record_key.to_string key))
      | Some _ -> Ok key

    let key_fields _ = None

    let record_count ctx (desc : Descriptor.t) =
      Imap.cardinal (store_of ctx desc.rel_id).records

    (* The one scan implementation (registered as the batch vector entry;
       the record cursor [scan] adapts it): one map walk per run of
       [Scan_help.run_length] records. The position between runs is the last
       delivered sequence number; the next run starts after it, so a delete
       at the position is harmless. *)
    let scan_batch ctx (desc : Descriptor.t) ~lo ~hi ~filter =
      ignore lo;
      ignore hi;
      let s = store_of ctx desc.rel_id in
      let n = Scan_help.run_length () in
      let pos = ref 0 in
      let next_run () =
        let from = Imap.to_seq_from (!pos + 1) s.records in
        match Array.of_seq (Seq.take n from) with
        | [||] -> None
        | run ->
          pos := fst run.(Array.length run - 1);
          Some (Array.map (fun (seq, record) -> (key_of_seq seq, record)) run)
      in
      Scan_help.filtered_batch ?filter ~next_run
        ~close:(fun () -> ())
        ~capture:(fun () ->
          let saved = !pos in
          fun () -> pos := saved)
        ()

    let scan ctx desc ?(lo = Intf.Unbounded) ?(hi = Intf.Unbounded) ?filter ()
        =
      Scan_help.records_of_runs ctx (scan_batch ctx desc ~lo ~hi ~filter)

    let estimate_scan ctx (desc : Descriptor.t) ~eligible =
      let rows = float_of_int (record_count ctx desc) in
      let sel =
        List.fold_left
          (fun acc p -> acc *. Dmx_expr.Analyze.selectivity p)
          1.0 eligible
      in
      {
        Cost.cost = Cost.make ~io:0. ~cpu:rows;
        est_rows = rows *. sel;
        matched = eligible;
        residual = [];
        ordered_by = None;
      }

    let undo ctx ~rel_id ~data =
      match Hashtbl.find_opt (stores ctx) rel_id with
      | None -> ()  (* volatile contents gone (restart): nothing to undo *)
      | Some s ->
        let img = Image.decode Codec.Dec.varint data in
        ignore (Image.undo img ~set:(set_seq s img.target ~log:ignore))

    (* Nothing to repeat: the store is volatile, so a restart finds it empty. *)
    let redo _ctx ~rel_id:_ ~data:_ = ()
  end

  include Impl

  let register () =
    register ~scan_batch ~redo:Impl.redo (module Impl : Intf.STORAGE_METHOD)
end

include Make (struct
  let name = "memory"
  let logged = true
end)
