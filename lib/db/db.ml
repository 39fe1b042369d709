open Dmx_core
module Authz = Dmx_authz.Authz
module Ddl = Dmx_ddl.Ddl
module Plan_cache = Dmx_query.Plan_cache
module Query = Dmx_query.Query
module Descriptor = Dmx_catalog.Descriptor

type t = {
  services : Services.t;
  cache : Plan_cache.t;
  authz : Authz.t;
  mutable user : string;
}

let defaults_registered = ref false [@@dmx.global "config-immutable-after-setup"]

let register_defaults () =
  if not !defaults_registered then begin
    defaults_registered := true;
    ignore (Dmx_smethod.Heap.register ());
    ignore (Dmx_smethod.Btree_org.register ());
    ignore (Dmx_smethod.Memory.register ());
    ignore (Dmx_smethod.Temp.register ());
    ignore (Dmx_smethod.Readonly.register ());
    ignore (Dmx_smethod.Foreign.register ());
    ignore (Dmx_smethod.Sysview.register ());
    ignore (Dmx_attach.Btree_index.register ());
    ignore (Dmx_attach.Hash_index.register ());
    ignore (Dmx_attach.Rtree_index.register ());
    ignore (Dmx_attach.Join_index.register ());
    ignore (Dmx_attach.Check.register ());
    ignore (Dmx_attach.Refint.register ());
    ignore (Dmx_attach.Trigger.register ());
    ignore (Dmx_attach.Stats.register ());
    ignore (Dmx_attach.Agg.register ())
  end

module Sysview = Dmx_smethod.Sysview

(* Create the [dmx_*] relation over every registered provider that does not
   already exist in the catalog (reopening a durable database finds them
   persisted). One transaction for the whole family; harmless when all views
   are already mounted. *)
let mount_system_views ctx =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc provider ->
      let* mounted = acc in
      let name = "dmx_" ^ provider in
      match Dmx_catalog.Catalog.find ctx.Ctx.catalog name with
      | Some _ -> Ok mounted
      | None ->
        let schema =
          match Sysview.provider_schema provider with
          | Some s -> s
          | None ->
            Error.raise_err
              (Error.Internal ("sysview: no provider " ^ provider))
        in
        let* desc =
          Ddl.create_relation ctx ~name ~schema ~storage_method:"sysview"
            ~attrs:[ ("provider", provider) ] ()
        in
        Ok (desc :: mounted))
    (Ok []) (Sysview.provider_names ())

let plan_cache_schema =
  lazy
    (Dmx_value.Schema.make_exn
       [ Dmx_value.Schema.column ~nullable:false "key" Dmx_value.Value.Tstring;
         Dmx_value.Schema.column ~nullable:false "valid" Dmx_value.Value.Tbool;
         Dmx_value.Schema.column ~nullable:false "plan" Dmx_value.Value.Tstring
       ]) [@@dmx.global "config-immutable-after-setup"]

let open_database ?dir ?disk ?(user = "admin") ?pool_capacity ?servers () =
  register_defaults ();
  let services =
    Services.setup ?dir ?disk ?pool_capacity
      ?attrs:(Option.map Dmx_smethod.Remote_server.attrs servers)
      ()
  in
  let authz =
    match dir with
    | None -> Authz.create ()
    | Some dir -> Authz.load ~path:(Filename.concat dir "authz.dmx")
  in
  Authz.add_admin authz "admin";
  let cache = Plan_cache.create () in
  (* The one provider owned by the facade rather than the engine: the bound
     plans live in this database handle's cache. *)
  Sysview.register_provider ~name:"plan_cache"
    ~schema:(Lazy.force plan_cache_schema)
    (fun ctx ->
      List.map
        (fun (key, plan) ->
          [| Dmx_value.Value.String key;
             Dmx_value.Value.Bool (Dmx_query.Plan.valid ctx plan);
             Dmx_value.Value.String (Dmx_query.Plan.describe plan) |])
        (Plan_cache.entries cache));
  let t = { services; cache; authz; user } in
  (match
     Services.with_txn services (fun ctx -> mount_system_views ctx)
   with
  | Ok mounted ->
    List.iter
      (fun desc ->
        Authz.grant_all authz ~user ~rel_id:desc.Descriptor.rel_id)
      mounted
  | Error e ->
    Error.raise_err
      (Error.Internal
         (Fmt.str "mounting system views failed: %a" Error.pp e)));
  t

let close t =
  Authz.save t.authz;
  Services.close t.services

let set_user t user = t.user <- user
let begin_txn t = Services.begin_txn t.services
let commit t ctx = Services.commit t.services ctx
let abort t ctx = Services.abort t.services ctx
let with_txn t f = Services.with_txn t.services f

let ( let* ) = Result.bind

let relation t ctx name =
  ignore t;
  Ddl.find_relation ctx name

let check t priv rel_id =
  Authz.check t.authz ~user:t.user ~priv ~rel_id

let create_relation t ctx ~name ~schema ?(storage_method = "heap") ?(attrs = [])
    () =
  let* desc = Ddl.create_relation ctx ~name ~schema ~storage_method ~attrs () in
  Authz.grant_all t.authz ~user:t.user ~rel_id:desc.Descriptor.rel_id;
  Ok desc

let drop_relation t ctx ~name =
  let* desc = Ddl.find_relation ctx name in
  let* () = check t Authz.Control desc.Descriptor.rel_id in
  let* () = Ddl.drop_relation ctx ~name in
  Authz.drop_relation t.authz ~rel_id:desc.Descriptor.rel_id;
  Ok ()

let create_attachment t ctx ~relation ~attachment_type ~name ?(attrs = []) () =
  let* desc = Ddl.find_relation ctx relation in
  let* () = check t Authz.Control desc.Descriptor.rel_id in
  Ddl.create_attachment ctx ~relation ~attachment_type ~name ~attrs ()

let drop_attachment t ctx ~relation ~attachment_type ~name =
  let* desc = Ddl.find_relation ctx relation in
  let* () = check t Authz.Control desc.Descriptor.rel_id in
  Ddl.drop_attachment ctx ~relation ~attachment_type ~name

let insert t ctx ~relation record =
  let* desc = Ddl.find_relation ctx relation in
  let* () = check t Authz.Insert desc.Descriptor.rel_id in
  Relation.insert ctx desc record

(* Bulk surface: descriptor lookup and the authorization check are paid once
   for the whole batch, then dispatch goes through the batch vector entry. *)
let insert_many t ctx ~relation records =
  let* desc = Ddl.find_relation ctx relation in
  let* () = check t Authz.Insert desc.Descriptor.rel_id in
  Relation.insert_many ctx desc records

let update t ctx ~relation key record =
  let* desc = Ddl.find_relation ctx relation in
  let* () = check t Authz.Update desc.Descriptor.rel_id in
  Relation.update ctx desc key record

let delete t ctx ~relation key =
  let* desc = Ddl.find_relation ctx relation in
  let* () = check t Authz.Delete desc.Descriptor.rel_id in
  Relation.delete ctx desc key

let check_query_authz t ctx (q : Query.t) =
  let* desc = Ddl.find_relation ctx q.q_relation in
  let* () = check t Authz.Select desc.Descriptor.rel_id in
  match q.q_join with
  | None -> Ok ()
  | Some j ->
    let* jdesc = Ddl.find_relation ctx j.j_relation in
    check t Authz.Select jdesc.Descriptor.rel_id

let query t ctx q ?params () =
  let* () = check_query_authz t ctx q in
  Plan_cache.execute t.cache ctx q ?params ()

let explain t ctx q =
  let* () = check_query_authz t ctx q in
  Plan_cache.explain t.cache ctx q

let explain_analyze t ctx q ?params () =
  let* () = check_query_authz t ctx q in
  Plan_cache.analyze t.cache ctx q ?params ()

let grant t ~user ~privs ~relation =
  match Dmx_catalog.Catalog.find t.services.Services.catalog relation with
  | None -> Error (Error.No_such_relation relation)
  | Some desc ->
    Authz.grant t.authz ~granter:t.user ~user ~privs
      ~rel_id:desc.Descriptor.rel_id

let revoke t ~user ~privs ~relation =
  match Dmx_catalog.Catalog.find t.services.Services.catalog relation with
  | None -> Error (Error.No_such_relation relation)
  | Some desc ->
    Authz.revoke t.authz ~granter:t.user ~user ~privs
      ~rel_id:desc.Descriptor.rel_id
