open Dmx_value

module Imap = Map.Make (Int)

type rel = { mutable records : Record.t Imap.t; mutable next_id : int }

type t = {
  name : string;
  rels : (string, rel) Hashtbl.t;
  mutable messages : int;
}

(* Owned by the application, handed to each database it opens. *)
type directory = (string, t) Hashtbl.t

let directory_key : directory Dmx_txn.Tmap.key =
  Dmx_txn.Tmap.new_key "remote_server.directory"

let directory () : directory = Hashtbl.create 4

let attrs directory =
  Dmx_txn.Tmap.add directory_key directory Dmx_txn.Tmap.empty

let create directory ~name =
  match Hashtbl.find_opt directory name with
  | Some t -> t
  | None ->
    let t = { name; rels = Hashtbl.create 8; messages = 0 } in
    Hashtbl.replace directory name t;
    t

let find txn_mgr name =
  Option.bind (Dmx_txn.Txn_mgr.attr txn_mgr directory_key) (fun directory ->
      Hashtbl.find_opt directory name)

let message_count t = t.messages
let reset_stats t = t.messages <- 0

type request =
  | Create_rel of string
  | Drop_rel of string
  | Insert of string * Record.t
  | Update of string * int * Record.t
  | Delete of string * int
  | Fetch of string * int
  | Scan_next of string * int
  | Count of string

type response =
  | Ok_unit
  | Ok_id of int
  | Ok_record of Record.t option
  | Ok_scan of (int * Record.t) option
  | Ok_count of int
  | Remote_error of string

let rel_of t name =
  match Hashtbl.find_opt t.rels name with
  | Some r -> Ok r
  | None -> Error (Fmt.str "server %s: no relation %s" t.name name)

let send t request =
  t.messages <- t.messages + 1;
  match request with
  | Create_rel name ->
    if Hashtbl.mem t.rels name then Remote_error (name ^ " exists")
    else begin
      Hashtbl.replace t.rels name { records = Imap.empty; next_id = 1 };
      Ok_unit
    end
  | Drop_rel name ->
    Hashtbl.remove t.rels name;
    Ok_unit
  | Insert (name, record) -> begin
    match rel_of t name with
    | Error e -> Remote_error e
    | Ok r ->
      let id = r.next_id in
      r.next_id <- id + 1;
      r.records <- Imap.add id record r.records;
      Ok_id id
  end
  | Update (name, id, record) -> begin
    match rel_of t name with
    | Error e -> Remote_error e
    | Ok r ->
      if Imap.mem id r.records then begin
        r.records <- Imap.add id record r.records;
        Ok_unit
      end
      else Remote_error (Fmt.str "no record %d" id)
  end
  | Delete (name, id) -> begin
    match rel_of t name with
    | Error e -> Remote_error e
    | Ok r -> begin
      match Imap.find_opt id r.records with
      | None -> Remote_error (Fmt.str "no record %d" id)
      | Some record ->
        r.records <- Imap.remove id r.records;
        Ok_record (Some record)
    end
  end
  | Fetch (name, id) -> begin
    match rel_of t name with
    | Error e -> Remote_error e
    | Ok r -> Ok_record (Imap.find_opt id r.records)
  end
  | Scan_next (name, after) -> begin
    match rel_of t name with
    | Error e -> Remote_error e
    | Ok r -> Ok_scan (Imap.find_first_opt (fun id -> id > after) r.records)
  end
  | Count name -> begin
    match rel_of t name with
    | Error e -> Remote_error e
    | Ok r -> Ok_count (Imap.cardinal r.records)
  end
