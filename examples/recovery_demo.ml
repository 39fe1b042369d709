(* Crash and restart recovery: the common log drives extension undo.

   Phase 1 commits some work, leaves a transaction in flight and crashes
   (volatile state is dropped, nothing is shut down cleanly). Phase 2 reopens
   the same directory: restart recovery classifies winners and losers from
   the log and drives the storage-method and attachment undo entry points for
   the losers.

   Run with: dune exec examples/recovery_demo.exe *)

open Dmx_value
module Db = Dmx_db.Db
module Query = Dmx_query.Query
module Services = Dmx_core.Services
module Error = Dmx_core.Error

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Fmt.str "%s: %s" what (Error.to_string e))

let dir = Filename.concat (Filename.get_temp_dir_name ()) "dmx_recovery_demo"

let clean () =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let account_schema =
  Schema.make_exn
    [
      Schema.column ~nullable:false "acct" Value.Tint;
      Schema.column "owner" Value.Tstring;
      Schema.column ~nullable:false "balance" Value.Tint;
    ]

let () =
  clean ();
  Db.register_defaults ();

  (* ---- phase 1: committed work + an in-flight loser, then crash ------- *)
  let db = Db.open_database ~dir () in
  ignore
    (ok "committed work"
       (Db.with_txn db (fun ctx ->
            ignore
              (ok "create"
                 (Db.create_relation db ctx ~name:"account"
                    ~schema:account_schema ()));
            ok "index"
              (Db.create_attachment db ctx ~relation:"account"
                 ~attachment_type:"btree_index" ~name:"acct_pk"
                 ~attrs:[ ("fields", "acct"); ("unique", "true") ] ());
            List.iter
              (fun (a, o, b) ->
                ignore
                  (ok "ins"
                     (Db.insert db ctx ~relation:"account"
                        [| Value.int a; String o; Value.int b |])))
              [ (1, "alice", 100); (2, "bob", 200); (3, "carol", 300) ];
            Ok ())));
  Fmt.pr "phase 1: committed 3 accounts@.";

  (* in-flight transaction: transfers money but never commits *)
  let ctx = Db.begin_txn db in
  let desc = ok "rel" (Db.relation db ctx "account") in
  let fetch_by_acct a =
    let scan =
      ok "scan"
        (Dmx_core.Relation.scan ctx desc
           ~filter:(Dmx_expr.Parse.parse_exn account_schema
                      (Fmt.str "acct = %d" a))
           ())
    in
    match scan.Dmx_core.Intf.rs_next () with
    | Some (key, record) ->
      scan.rs_close ();
      (key, record)
    | None -> failwith "account missing"
  in
  let k1, r1 = fetch_by_acct 1 in
  let k2, r2 = fetch_by_acct 2 in
  ignore
    (ok "debit"
       (Db.update db ctx ~relation:"account"
          k1 [| r1.(0); r1.(1); Value.int 0 |]));
  ignore
    (ok "credit"
       (Db.update db ctx ~relation:"account"
          k2 [| r2.(0); r2.(1); Value.int 300 |]));
  ignore
    (ok "new acct"
       (Db.insert db ctx ~relation:"account"
          [| Value.int 4; String "mallory"; Value.int 999 |]));
  (* harden log and pages so the crash leaves loser effects on disk *)
  Dmx_wal.Wal.flush db.Db.services.Services.wal;
  ignore (Dmx_page.Buffer_pool.flush_all db.Db.services.Services.bp);
  Fmt.pr "phase 1: in-flight transfer written to disk, now crashing...@.";
  Services.simulate_crash db.Db.services;

  (* ---- phase 2: restart ------------------------------------------------ *)
  let db = Db.open_database ~dir () in
  (match db.Db.services.Services.last_recovery with
  | Some a ->
    Fmt.pr "phase 2: restart recovery: %a@." Dmx_wal.Recovery.pp a
  | None -> Fmt.pr "phase 2: no recovery analysis?!@.");
  ignore
    (ok "verify"
       (Db.with_txn db (fun ctx ->
            let rows =
              ok "q" (Db.query db ctx (Query.select "account") ())
            in
            Fmt.pr "accounts after recovery:@.";
            List.iter (fun r -> Fmt.pr "  %a@." Record.pp r) rows;
            assert (List.length rows = 3);
            (* balances are back to their committed values *)
            List.iter
              (fun r ->
                match Value.to_int r.(0), Value.to_int r.(2) with
                | Some 1L, b -> assert (b = Some 100L)
                | Some 2L, b -> assert (b = Some 200L)
                | Some 3L, b -> assert (b = Some 300L)
                | _ -> assert false)
              rows;
            (* the unique index is consistent with the relation *)
            let q = Query.select ~where:"acct = 4" "account" in
            assert (ok "q4" (Db.query db ctx q ()) = []);
            Ok ())));
  Db.close db;
  clean ();
  Fmt.pr "@.recovery_demo: done — losers undone, winners preserved@."
