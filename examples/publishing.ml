(* Optical-disk database publishing (a motivating application from the
   paper's introduction: "special facilities to support (read-only) optical
   disk database publishing applications").

   A publisher masters a parts catalog onto the write-once storage method,
   seals it, and "ships" it. A subscriber site mounts the published catalog
   read-only and combines it with its own live order data — including a
   foreign-gateway relation standing in for the publisher's price service —
   all through the one uniform relation interface.

   Run with: dune exec examples/publishing.exe *)

open Dmx_value
module Db = Dmx_db.Db
module Query = Dmx_query.Query
module Error = Dmx_core.Error

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Fmt.str "%s: %s" what (Error.to_string e))

let catalog_schema =
  Schema.make_exn
    [
      Schema.column ~nullable:false "part_no" Value.Tint;
      Schema.column "description" Value.Tstring;
      Schema.column "weight" Value.Tfloat;
    ]

let order_schema =
  Schema.make_exn
    [
      Schema.column ~nullable:false "order_id" Value.Tint;
      Schema.column ~nullable:false "part_no" Value.Tint;
      Schema.column "qty" Value.Tint;
    ]

let () =
  Db.register_defaults ();
  (* the publisher's live price service, reachable only by messages *)
  let servers = Dmx_smethod.Remote_server.directory () in
  let srv = Dmx_smethod.Remote_server.create servers ~name:"publisher" in
  let db = Db.open_database ~servers () in

  (* ---- mastering: append, then seal ----------------------------------- *)
  ignore
    (ok "master"
       (Db.with_txn db (fun ctx ->
            let desc =
              ok "create catalog"
                (Db.create_relation db ctx ~name:"parts" ~schema:catalog_schema
                   ~storage_method:"readonly" ())
            in
            for p = 1 to 500 do
              ignore
                (ok "append"
                   (Db.insert db ctx ~relation:"parts"
                      [|
                        Value.int p;
                        String (Fmt.str "part-%04d" p);
                        Float (float_of_int (p mod 50) +. 0.25);
                      |]))
            done;
            (* an index on the published medium, built before sealing *)
            ok "catalog index"
              (Db.create_attachment db ctx ~relation:"parts"
                 ~attachment_type:"btree_index" ~name:"part_pk"
                 ~attrs:[ ("fields", "part_no"); ("unique", "true") ] ());
            Dmx_smethod.Readonly.seal ctx desc;
            Fmt.pr "mastered and sealed a %d-part catalog@."
              500;
            Ok ())));

  (* the medium refuses all modification *)
  ignore
    (ok "verify sealed"
       (Db.with_txn db (fun ctx ->
            (match
               Db.insert db ctx ~relation:"parts"
                 [| Value.int 999; String "bootleg"; Float 1.0 |]
             with
            | Error (Error.Read_only _) ->
              Fmt.pr "write to the published medium refused, as it must be@."
            | _ -> Fmt.pr "PUBLISHED MEDIUM ACCEPTED A WRITE?!@.");
            Ok ())));

  (* ---- subscriber site: live orders + remote prices ------------------- *)
  ignore
    (ok "subscriber"
       (Db.with_txn db (fun ctx ->
            ignore
              (ok "orders"
                 (Db.create_relation db ctx ~name:"orders" ~schema:order_schema ()));
            ok "order fk"
              (Db.create_attachment db ctx ~relation:"orders"
                 ~attachment_type:"refint" ~name:"order_part"
                 ~attrs:
                   [
                     ("fields", "part_no"); ("parent", "parts");
                     ("parent_fields", "part_no");
                   ]
                 ());
            ignore
              (ok "prices"
                 (Db.create_relation db ctx ~name:"prices"
                    ~schema:
                      (Schema.make_exn
                         [
                           Schema.column ~nullable:false "part_no" Value.Tint;
                           Schema.column "price" Value.Tfloat;
                         ])
                    ~storage_method:"foreign"
                    ~attrs:[ ("server", "publisher"); ("relation", "prices") ]
                    ()));
            for p = 1 to 500 do
              if p mod 5 = 0 then
                ignore
                  (ok "price"
                     (Db.insert db ctx ~relation:"prices"
                        [| Value.int p; Float (float_of_int p *. 9.99) |]))
            done;
            (* orders must reference published parts *)
            ignore
              (ok "good order"
                 (Db.insert db ctx ~relation:"orders"
                    [| Value.int 1; Value.int 120; Value.int 3 |]));
            (match
               Db.insert db ctx ~relation:"orders"
                 [| Value.int 2; Value.int 9999; Value.int 1 |]
             with
            | Error e ->
              Fmt.pr "order for an unpublished part rejected: %s@."
                (Error.to_string e)
            | Ok _ -> Fmt.pr "UNPUBLISHED PART ORDERED?!@.");
            (* join live orders with the published catalog *)
            let q =
              Query.join "orders" ~on:("parts", "part_no", "part_no")
                ~project:[ "order_id"; "description"; "qty" ]
            in
            Fmt.pr "order report (plan: %s):@."
              (ok "explain" (Db.explain db ctx q));
            List.iter
              (fun r -> Fmt.pr "  %a@." Record.pp r)
              (ok "report" (Db.query db ctx q ()));
            (* and ask the remote price service through the gateway *)
            let qp = Query.select ~where:"part_no = 120" "prices" in
            (match ok "price lookup" (Db.query db ctx qp ()) with
            | [ r ] -> Fmt.pr "remote price for part 120: %a@." Value.pp r.(1)
            | _ -> Fmt.pr "no remote price for part 120@.");
            Fmt.pr "messages exchanged with the publisher: %d@."
              (Dmx_smethod.Remote_server.message_count srv);
            Ok ())));
  Db.close db;
  Fmt.pr "@.publishing: done@."
