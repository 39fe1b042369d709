(** The database facade: everything assembled.

    [register_defaults] binds the built-in extension suite "at the factory"
    (six storage methods, eight attachment types) in a fixed canonical order,
    so extension ids in persisted catalogs stay stable across runs.
    Applications may register additional extensions before
    {!open_database}. *)

open Dmx_value
open Dmx_core

type t = {
  services : Services.t;
  cache : Dmx_query.Plan_cache.t;
  authz : Dmx_authz.Authz.t;
  mutable user : string;
}

val register_defaults : unit -> unit
(** Idempotent. Registration order (and therefore ids): heap, btree, memory,
    temp, readonly, foreign, sysview; btree_index, hash_index, rtree_index,
    join_index, check, refint, trigger, stats, agg. *)

val mount_system_views :
  Ctx.t -> (Dmx_catalog.Descriptor.t list, Error.t) result
(** Create the [dmx_*] system relation over every registered sysview
    provider not already present in the catalog; returns the newly created
    descriptors (empty on a reopened database that persisted them).
    {!open_database} calls this in its own transaction; harnesses built
    directly on [Services] (the chaos torture rig) call it themselves. *)

val open_database :
  ?dir:string -> ?disk:Dmx_page.Disk.t -> ?user:string ->
  ?pool_capacity:int -> ?servers:Dmx_smethod.Remote_server.directory ->
  unit -> t
(** [user] defaults to ["admin"], which is always an administrator. Runs
    restart recovery when [dir] holds an existing database.
    [disk] substitutes the page store (fault-injection harnesses);
    [pool_capacity] sizes the buffer pool (default 256 frames). [servers]:
    the foreign servers it reaches (none by default); pass the same ones to
    every open, so restart can compensate a loser's remote writes. *)

val close : t -> unit
val set_user : t -> string -> unit

(** {2 Transactions} *)

val begin_txn : t -> Ctx.t
val commit : t -> Ctx.t -> unit
val abort : t -> Ctx.t -> unit
val with_txn : t -> (Ctx.t -> ('a, Error.t) result) -> ('a, Error.t) result

(** {2 DDL (authorization: creator gets all privileges; CONTROL to drop)} *)

val create_relation :
  t -> Ctx.t -> name:string -> schema:Schema.t -> ?storage_method:string ->
  ?attrs:(string * string) list -> unit ->
  (Dmx_catalog.Descriptor.t, Error.t) result

val drop_relation : t -> Ctx.t -> name:string -> (unit, Error.t) result

val create_attachment :
  t -> Ctx.t -> relation:string -> attachment_type:string -> name:string ->
  ?attrs:(string * string) list -> unit -> (unit, Error.t) result

val drop_attachment :
  t -> Ctx.t -> relation:string -> attachment_type:string -> name:string ->
  (unit, Error.t) result

(** {2 DML} *)

val relation :
  t -> Ctx.t -> string -> (Dmx_catalog.Descriptor.t, Error.t) result

val insert :
  t -> Ctx.t -> relation:string -> Record.t -> (Record_key.t, Error.t) result

val insert_many :
  t -> Ctx.t -> relation:string -> Record.t array ->
  (Record_key.t array, Error.t) result
(** Bulk {!insert}: one descriptor lookup and authorization check per batch,
    then {!Dmx_core.Relation.insert_many}. Atomic per batch. *)

val update :
  t -> Ctx.t -> relation:string -> Record_key.t -> Record.t ->
  (Record_key.t, Error.t) result

val delete :
  t -> Ctx.t -> relation:string -> Record_key.t -> (Record.t, Error.t) result

val query :
  t -> Ctx.t -> Dmx_query.Query.t -> ?params:Value.t array -> unit ->
  (Record.t list, Error.t) result
(** Through the bound-plan cache: first use translates, later uses run the
    saved plan, invalidated plans re-translate automatically. *)

val explain :
  t -> Ctx.t -> Dmx_query.Query.t -> (string, Error.t) result

val explain_analyze :
  t -> Ctx.t -> Dmx_query.Query.t -> ?params:Value.t array -> unit ->
  (Record.t list * Dmx_query.Executor.op_stats, Error.t) result
(** Execute with per-operator instrumentation; render the stats tree with
    [Dmx_query.Executor.pp_analysis]. Same Select authorization as
    {!query}. *)

(** {2 Grants} *)

val grant :
  t -> user:string -> privs:Dmx_authz.Authz.priv list -> relation:string ->
  (unit, Error.t) result

val revoke :
  t -> user:string -> privs:Dmx_authz.Authz.priv list -> relation:string ->
  (unit, Error.t) result
