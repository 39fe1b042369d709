(** Simulated remote database server.

    Substitute for the paper's foreign database (p. 221: a storage method may
    "support access to a foreign database by simulating relation accesses via
    (remote) accesses to relations in the foreign database"). The server is
    in-process but reachable *only* through the message protocol below; each
    request/response round trip is counted so benches and cost estimates can
    charge for it. *)

open Dmx_value

type t

type directory
(** The servers an application can reach, by name. The application owns it
    and hands it to each database it opens ([Db.open_database ~servers]),
    before restart recovery runs: a server outlives a reopen of the local
    database, and recovery can compensate a loser's remote writes. *)

val directory : unit -> directory

val create : directory -> name:string -> t
(** Create (or return) the server registered under [name]. *)

val attrs : directory -> Dmx_txn.Tmap.t
(** Extension state holding the directory ([Services.setup ~attrs]). *)

val find : Dmx_txn.Txn_mgr.t -> string -> t option
(** The named server of the directory the database was given, if any. *)

val message_count : t -> int
val reset_stats : t -> unit

type request =
  | Create_rel of string
  | Drop_rel of string
  | Insert of string * Record.t
  | Update of string * int * Record.t
  | Delete of string * int
  | Fetch of string * int
  | Scan_next of string * int  (** first record with remote id > the given *)
  | Count of string

type response =
  | Ok_unit
  | Ok_id of int
  | Ok_record of Record.t option
  | Ok_scan of (int * Record.t) option
  | Ok_count of int
  | Remote_error of string

val send : t -> request -> response
