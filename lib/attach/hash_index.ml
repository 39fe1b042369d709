open Dmx_value
open Dmx_page
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Attrlist = Dmx_catalog.Attrlist

type inst = { fields : int array; unique : bool; buckets : int array }

module Slot = Attach_util.Slot (struct
  let name = "hash_index"

  type t = inst

  let enc e i =
    Codec.Enc.list e (fun e f -> Codec.Enc.varint e f) (Array.to_list i.fields);
    Codec.Enc.bool e i.unique;
    Codec.Enc.list e (fun e b -> Codec.Enc.varint e b) (Array.to_list i.buckets)

  let dec d =
    let fields = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
    let unique = Codec.Dec.bool d in
    let buckets = Array.of_list (Codec.Dec.list d Codec.Dec.varint) in
    { fields; unique; buckets }
end)

let id = Slot.id

(* ---- bucket pages: { next; entries : (vals, reckey) list } ---- *)

type bucket = { next : int; entries : (Value.t array * Record_key.t) list }

let enc_bucket b =
  let e = Codec.Enc.create () in
  Codec.Enc.varint e b.next;
  Codec.Enc.list e
    (fun e (vals, rk) ->
      Codec.Enc.record e vals;
      Record_key.enc e rk)
    b.entries;
  Codec.Enc.to_string e

let dec_bucket s =
  let d = Codec.Dec.of_string s in
  let next = Codec.Dec.varint d in
  let entries =
    Codec.Dec.list d (fun d ->
        let vals = Codec.Dec.record d in
        let rk = Record_key.dec d in
        (vals, rk))
  in
  { next; entries }

let read_bucket ctx page =
  Buffer_pool.with_page ctx.Ctx.bp page (fun frame ->
      let len = Bytes.get_uint16_le frame.Buffer_pool.data 0 in
      dec_bucket (Bytes.sub_string frame.Buffer_pool.data 2 len))

let write_bucket ctx page b =
  let data = enc_bucket b in
  let len = String.length data in
  Buffer_pool.with_page_mut ctx.Ctx.bp page ~lsn:0L (fun frame ->
      Bytes.set_uint16_le frame.Buffer_pool.data 0 len;
      Bytes.blit_string data 0 frame.Buffer_pool.data 2 len)

let capacity ctx = Disk.page_size (Buffer_pool.disk ctx.Ctx.bp) - 64

let alloc_bucket ctx next =
  let frame = Buffer_pool.alloc ctx.Ctx.bp in
  let page = frame.Buffer_pool.page_id in
  Buffer_pool.unpin ~dirty:true ctx.Ctx.bp frame;
  write_bucket ctx page { next; entries = [] };
  page

let bucket_index inst vals =
  let h = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 vals in
  abs h mod Array.length inst.buckets

let vals_equal a b =
  Array.length a = Array.length b && Array.for_all2 Value.equal a b

(* Walk the chain applying [f page bucket]; stops when f returns Some. *)
let rec chain_find ctx page f =
  if page = 0 then None
  else
    let b = read_bucket ctx page in
    match f page b with
    | Some _ as r -> r
    | None -> chain_find ctx b.next f

let chain_collect ctx head vals =
  let acc = ref [] in
  ignore
    (chain_find ctx head (fun _ b ->
         List.iter
           (fun (v, rk) -> if vals_equal v vals then acc := rk :: !acc)
           b.entries;
         None));
  List.rev !acc

(* ---- entry images ---- *)

(* An index entry (instance, key values, record key) is the target of a
   presence image. *)
let enc_entry e (no, vals, reckey) =
  Codec.Enc.varint e no;
  Codec.Enc.record e vals;
  Record_key.enc e reckey

let dec_entry d =
  let no = Codec.Dec.varint d in
  let vals = Codec.Dec.record d in
  (no, vals, Record_key.dec d)

(* The bucket-chain read-modify-write of one entry: one walk reads the
   chain up to the page holding the entry; an add goes to the first page
   walked with room for it, or to an overflow page after the head. *)
let set_entry ctx inst ((_, vals, reckey) as entry) ~log f =
  let head = inst.buckets.(bucket_index inst vals) in
  let is_entry (v, rk) = vals_equal v vals && Record_key.equal rk reckey in
  let walked = ref [] in
  let holder =
    chain_find ctx head (fun page b ->
        walked := (page, b) :: !walked;
        if List.exists is_entry b.entries then Some (page, b) else None)
  in
  let with_entry b = { b with entries = (vals, reckey) :: b.entries } in
  Image.change enc_entry ~log
    ~read:(fun () -> Image.presence (holder <> None))
    ~write:(function
      | None ->
        Option.iter
          (fun (page, b) ->
            let entries = List.filter (fun e -> not (is_entry e)) b.entries in
            write_bucket ctx page { b with entries })
          holder
      | Some _ -> (
        let fits (_, b) =
          String.length (enc_bucket (with_entry b)) + 2 <= capacity ctx
        in
        match List.find_opt fits (List.rev !walked) with
        | Some (page, b) -> write_bucket ctx page (with_entry b)
        | None ->
          let head_b = read_bucket ctx head in
          let overflow = alloc_bucket ctx head_b.next in
          write_bucket ctx overflow
            { next = head_b.next; entries = [ (vals, reckey) ] };
          write_bucket ctx head { head_b with next = overflow }))
    entry f

let ( let* ) = Result.bind

let add_entry ctx (desc : Descriptor.t) name no inst record reckey =
  let vals = Record.project record inst.fields in
  let head = inst.buckets.(bucket_index inst vals) in
  if inst.unique && chain_collect ctx head vals <> [] then
    Error
      (Error.veto
         ~attachment:(Fmt.str "unique hash index %S" name)
         (Fmt.str "duplicate key (%a)"
            Fmt.(array ~sep:(any ",") Value.pp)
            vals))
  else begin
    ignore
      (set_entry ctx inst (no, vals, reckey) ~log:(Slot.log ctx desc) (fun _ ->
           Image.presence true));
    Ok ()
  end

let remove_entry ctx desc no inst record reckey =
  let vals = Record.project record inst.fields in
  ignore
    (set_entry ctx inst (no, vals, reckey) ~log:(Slot.log ctx desc) (fun _ ->
         None));
  Ok ()

module Impl = struct
  let name = "hash_index"

  let attr_specs =
    [
      Attrlist.spec ~required:true "fields" Attrlist.A_string;
      Attrlist.spec "unique" Attrlist.A_bool;
      Attrlist.spec "buckets" Attrlist.A_int;
    ]

  let create_instance ctx (desc : Descriptor.t) ~instance_name attrs =
    match Attrlist.validate attr_specs attrs with
    | Error e -> Error (Error.Ddl_error e)
    | Ok () ->
      Slot.add desc ~instance_name ~what:"hash index" (fun () ->
          match
            Attach_util.parse_fields desc.schema
              (Option.get (Attrlist.find attrs "fields"))
          with
          | Error e -> Error (Error.Ddl_error e)
          | Ok fields -> (
            let unique =
              match Attrlist.get_bool attrs "unique" with
              | Ok (Some b) -> b
              | Ok None | Error _ -> false
            in
            let n_buckets =
              match Attrlist.get_int attrs "buckets" with
              | Ok (Some n) when n > 0 && n <= 4096 -> n
              | _ -> 16
            in
            let buckets = Array.init n_buckets (fun _ -> alloc_bucket ctx 0) in
            let inst = { fields; unique; buckets } in
            let dup = ref None in
            Attach_util.scan_relation ctx desc (fun reckey record ->
                let vals = Record.project record fields in
                let head = inst.buckets.(bucket_index inst vals) in
                if unique && !dup = None && chain_collect ctx head vals <> []
                then dup := Some vals
                else
                  (* unlogged build: the target's instance number is moot *)
                  ignore
                    (set_entry ctx inst (0, vals, reckey) ~log:ignore (fun _ ->
                         Image.presence true)));
            match !dup with
            | Some vals ->
              Error
                (Error.Constraint_violation
                   (Fmt.str "existing records duplicate key (%a)"
                      Fmt.(array ~sep:(any ",") Value.pp)
                      vals))
            | None -> Ok inst))

  let drop_instance _ctx desc ~instance_name =
    Result.map snd (Slot.drop desc ~instance_name)

  let on_insert ctx desc ~slot reckey record =
    Slot.each slot (fun no name inst ->
        add_entry ctx desc name no inst record reckey)

  (* Batch vector entry: entries are sorted by bucket index so each chain's
     pages are visited consecutively. Within-batch duplicates on a unique
     index are
     still caught by the chain probe — earlier entries of the batch are
     already in their chains. *)
  let on_insert_batch ctx (desc : Descriptor.t) ~slot entries =
    Slot.each slot (fun no name inst ->
        let keyed =
          Array.map
            (fun (rk, record) ->
              let vals = Record.project record inst.fields in
              (bucket_index inst vals, vals, rk))
            entries
        in
        Array.sort (fun (b1, _, _) (b2, _, _) -> compare b1 b2) keyed;
        let rec loop i =
          if i >= Array.length keyed then Ok ()
          else begin
            let bi, vals, rk = keyed.(i) in
            let head = inst.buckets.(bi) in
            if inst.unique && chain_collect ctx head vals <> [] then
              Error
                (Error.veto
                   ~attachment:(Fmt.str "unique hash index %S" name)
                   (Fmt.str "duplicate key (%a)"
                      Fmt.(array ~sep:(any ",") Value.pp)
                      vals))
            else begin
              ignore
                (set_entry ctx inst (no, vals, rk) ~log:(Slot.log ctx desc)
                   (fun _ -> Image.presence true));
              loop (i + 1)
            end
          end
        in
        loop 0)

  let on_delete ctx desc ~slot reckey record =
    Slot.each slot (fun no _name inst ->
        remove_entry ctx desc no inst record reckey)

  let on_update ctx desc ~slot ~old_key ~new_key ~old_record ~new_record =
    Slot.each slot (fun no name inst ->
        if
          Record.compare_on inst.fields old_record new_record = 0
          && Record_key.equal old_key new_key
        then Ok ()
        else
          let* () = remove_entry ctx desc no inst old_record old_key in
          add_entry ctx desc name no inst new_record new_key)

  let lookup ctx desc ~slot ~instance ~key =
    ignore desc;
    match Slot.by_no slot instance with
    | None -> []
    | Some inst ->
      chain_collect ctx inst.buckets.(bucket_index inst key) key

  let scan _ctx _desc ~slot:_ ~instance:_ ?lo:_ ?hi:_ () = None

  let estimate ctx (desc : Descriptor.t) ~slot ~eligible =
    ignore desc;
    let pred = Dmx_expr.Analyze.conjoin eligible in
    List.filter_map
      (fun (no, _name, inst) ->
        match pred with
        | None -> None
        | Some p ->
          let m =
            Dmx_expr.Analyze.match_key ~key_fields:inst.fields p
          in
          (* A hash access path is relevant only when every hashed field is
             bound by equality. *)
          if m.eq_prefix < Array.length inst.fields then None
          else begin
            (* Index dip: with constant key values, count the actual
               matches in the bucket chain. *)
            let est_rows =
              match
                Dmx_expr.Analyze.key_range ~key_fields:inst.fields p
              with
              | Some (eq, _) when Array.length eq = Array.length inst.fields ->
                let head = inst.buckets.(bucket_index inst eq) in
                float_of_int (max 1 (List.length (chain_collect ctx head eq)))
              | _ -> if inst.unique then 1.0 else 2.0
            in
            Some
              {
                Intf.ac_instance = no;
                ac_key_fields = Some inst.fields;
                ac_spatial_rect = None;
                ac_estimate =
                  {
                    Cost.cost = Cost.make ~io:1.2 ~cpu:4.;
                    est_rows;
                    matched = m.matched;
                    residual = m.residual;
                    ordered_by = None;
                  };
              }
          end)
      (Slot.decode slot)

  (* Bucket pages of an index whose creation never reached the store hold
     nothing to undo. *)
  let undo ctx ~rel_id ~data =
    let img = Image.decode dec_entry data in
    let no, vals, _ = img.target in
    match Slot.in_catalog ctx ~rel_id no with
    | Some inst
      when Buffer_pool.page_live ctx.Ctx.bp
             inst.buckets.(bucket_index inst vals) ->
      ignore (Image.undo img ~set:(set_entry ctx inst img.target ~log:ignore))
    | Some _ | None -> ()

  (* A lost overflow page is allocated again by the re-run change. *)
  let redo ctx ~rel_id ~data =
    let img = Image.decode dec_entry data in
    let no, vals, _ = img.target in
    match Slot.in_catalog ctx ~rel_id no with
    | Some inst
      when Buffer_pool.page_live ctx.Ctx.bp
             inst.buckets.(bucket_index inst vals)
           && Image.redo img ~set:(set_entry ctx inst img.target ~log:ignore) ->
      Ctx.applied ctx
    | Some _ | None -> ()
end

include Impl

let register () =
  Slot.register ~insert_batch:Impl.on_insert_batch ~redo:Impl.redo
    (module Impl : Intf.ATTACHMENT)
