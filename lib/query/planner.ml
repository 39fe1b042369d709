open Dmx_value
open Dmx_expr
open Dmx_core
module Descriptor = Dmx_catalog.Descriptor
module Catalog = Dmx_catalog.Catalog

let ( let* ) = Result.bind

(* Random record fetches through the storage method after an access-path
   probe. Charged below one page read because consecutive fetches share
   buffer-pool residency. *)
let fetch_io_per_row = 0.3

(* Every access candidate for one relation and predicate. *)
let candidates ctx (desc : Descriptor.t) pred =
  let eligible = match pred with None -> [] | Some p -> Analyze.conjuncts p in
  let (module M : Intf.STORAGE_METHOD) =
    Registry.storage_method desc.smethod_id
  in
  let storage_est = M.estimate_scan ctx desc ~eligible in
  let storage_access =
    match M.key_fields desc, pred with
    | Some kf, Some p ->
      let m = Analyze.match_key ~key_fields:kf p in
      if m.eq_prefix > 0 || m.range_on_next <> [] then
        Plan.Keyed_storage { key_fields = kf }
      else Plan.Seq_scan
    | _ -> Plan.Seq_scan
  in
  let storage = (storage_access, storage_est) in
  let attach =
    List.concat_map
      (fun at_id ->
        match Descriptor.attachment_desc desc at_id with
        | None -> []
        | Some slot ->
          let (module A : Intf.ATTACHMENT) = Registry.attachment at_id in
          A.estimate ctx desc ~slot ~eligible
          |> List.map (fun (c : Intf.access_candidate) ->
                 let access =
                   match c.ac_spatial_rect with
                   | Some rect_exprs ->
                     Plan.Spatial { at_id; instance = c.ac_instance; rect_exprs }
                   | None -> begin
                     match c.ac_key_fields with
                     | None ->
                       Plan.Index_range
                         { at_id; instance = c.ac_instance; fields = [||] }
                     | Some fields ->
                       let full_eq =
                         match pred with
                         | None -> false
                         | Some p ->
                           let m = Analyze.match_key ~key_fields:fields p in
                           m.eq_prefix = Array.length fields
                           && m.range_on_next = []
                       in
                       if full_eq then
                         Plan.Index_eq { at_id; instance = c.ac_instance; fields }
                       else
                         Plan.Index_range
                           { at_id; instance = c.ac_instance; fields }
                   end
                 in
                 (* access paths return keys; charge the record fetches *)
                 let est = c.ac_estimate in
                 let est =
                   {
                     est with
                     Cost.cost =
                       Cost.add est.Cost.cost
                         (Cost.make
                            ~io:(est.Cost.est_rows *. fetch_io_per_row)
                            ~cpu:est.Cost.est_rows);
                   }
                 in
                 (access, est)))
      (Descriptor.attachment_types_present desc)
  in
  storage :: attach

let plan_single ctx (desc : Descriptor.t) pred : Plan.single =
  let cands = candidates ctx desc pred in
  let best =
    List.fold_left
      (fun best (access, est) ->
        match best with
        | Some (_, best_est)
          when Cost.compare best_est.Cost.cost est.Cost.cost <= 0 -> best
        | _ -> Some (access, est))
      None cands
  in
  let access, est = Option.get best in
  { Plan.desc; access; predicate = pred; est }

let resolve_field (schema : Schema.t) name =
  match Schema.field_index schema name with
  | Some i -> Ok i
  | None -> Error (Error.Schema_error (Fmt.str "unknown column %S" name))

let parse_pred schema = function
  | None -> Ok None
  | Some text -> begin
    match Parse.parse schema text with
    | Ok e -> Ok (Some e)
    | Error msg -> Error (Error.Schema_error ("bad predicate: " ^ msg))
  end

(* Projection positions over the output record: primary relation's columns
   first, joined relation's appended. *)
let resolve_projection (outer : Schema.t) (inner : Schema.t option) = function
  | None -> Ok None
  | Some cols ->
    let resolve name =
      match Schema.field_index outer name with
      | Some i -> Ok i
      | None -> begin
        match inner with
        | Some s -> begin
          match Schema.field_index s name with
          | Some i -> Ok (Schema.arity outer + i)
          | None -> Error (Error.Schema_error (Fmt.str "unknown column %S" name))
        end
        | None -> Error (Error.Schema_error (Fmt.str "unknown column %S" name))
      end
    in
    let rec loop acc = function
      | [] -> Ok (Some (Array.of_list (List.rev acc)))
      | c :: rest ->
        let* i = resolve c in
        loop (i :: acc) rest
    in
    loop [] cols

let find_rel ctx name =
  match Catalog.find ctx.Ctx.catalog name with
  | Some d -> Ok d
  | None -> Error (Error.No_such_relation name)

let translate ctx (q : Query.t) =
  let* outer_desc = find_rel ctx q.q_relation in
  let* pred = parse_pred outer_desc.Descriptor.schema q.q_predicate in
  match q.q_join with
  | None ->
    let single = plan_single ctx outer_desc pred in
    let* projection =
      resolve_projection outer_desc.Descriptor.schema None q.q_project
    in
    Ok
      {
        Plan.shape = Plan.Single single;
        projection;
        deps = [ (outer_desc.rel_id, outer_desc.version) ];
        out_arity = Schema.arity outer_desc.schema;
      }
  | Some j ->
    let* inner_desc = find_rel ctx j.j_relation in
    let* my_field = resolve_field outer_desc.schema j.j_my_field in
    let* other_field = resolve_field inner_desc.schema j.j_other_field in
    let outer = plan_single ctx outer_desc pred in
    (* Nested loop: inner side planned with the join value as a parameter. *)
    let join_param =
      1 + (match pred with None -> -1 | Some p -> Expr.max_param p)
    in
    let inner_pred =
      Expr.Cmp (Eq, Expr.Field other_field, Expr.Param join_param)
    in
    let inner = plan_single ctx inner_desc (Some inner_pred) in
    let nl_cost =
      Cost.add outer.est.Cost.cost
        (Cost.scale outer.est.Cost.est_rows inner.est.Cost.cost)
    in
    let ji =
      Option.map
        (fun instance ->
          let pairs =
            float_of_int
              (Dmx_attach.Join_index.pair_count ctx outer_desc ~instance)
          in
          let cost =
            Cost.make
              ~io:((pairs /. 32.) +. (2. *. pairs *. fetch_io_per_row))
              ~cpu:(4. *. pairs)
          in
          (instance, cost))
        (Dmx_attach.Join_index.find_instance outer_desc ~my_field
           ~other_rel:inner_desc.rel_id ~other_field)
    in
    let method_ =
      match ji with
      | Some (instance, ji_cost) when Cost.compare ji_cost nl_cost < 0 ->
        Plan.Via_join_index
          {
            at_id = Option.get (Registry.attachment_id "join_index");
            instance;
          }
      | _ -> Plan.Nested_loop { inner; join_param }
    in
    let* projection =
      resolve_projection outer_desc.schema (Some inner_desc.schema) q.q_project
    in
    Ok
      {
        Plan.shape =
          Plan.Join { outer; inner_desc; my_field; other_field; method_ };
        projection;
        deps =
          [
            (outer_desc.rel_id, outer_desc.version);
            (inner_desc.rel_id, inner_desc.version);
          ];
        out_arity = Schema.arity outer_desc.schema + Schema.arity inner_desc.schema;
      }
