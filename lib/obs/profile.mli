(** The profile sink: per-transaction latency attribution keyed by
    (vector, slot id).

    The paper's extension architecture routes every data operation through
    procedure vectors (storage methods) and attachment side-effects; this
    sink answers "where did the transaction's wall-clock go?". Every span
    emitted with an attribution {!key} is charged, on close, to the
    (transaction, key) entry with the total and self time {!Emit} computed
    on its span stack: a storage-method span's self time excludes the WAL
    append it triggered, an attachment span's excludes the buffer-pool fill
    under it. {!Emit} owns the one live aggregator ([DMX_OBS=profile] or
    [Emit.arm `Profile]); this module is the table and its reports. *)

type key =
  | Smethod of int  (** storage-method vector, slot = registry id *)
  | Attachment of int  (** attachment-type vector, slot = registry id *)
  | Lock  (** lock-table wait/acquire *)
  | Wal  (** log append and flush *)
  | Bp  (** buffer-pool miss fill *)
  | Span of string  (** named region via [Ctx.with_span] *)

type t

val create : unit -> t

val charge :
  t -> txid:int -> key -> total_us:float -> self_us:float -> outcome:string ->
  unit
(** Fold one closed span. Outcome ["veto"] bumps the veto tally; anything
    other than ["ok"] and ["veto"] bumps the error tally. *)

val set_key_namer : t -> (key -> string option) -> unit
(** Resolve slot ids to names ([Services.setup] installs a namer backed by
    the registry); [None] falls back to ["smethod:#3"]-style labels. *)

type row = {
  r_name : string;
  r_calls : int;
  r_total_us : float;
  r_self_us : float;  (** total minus time charged to enclosed keyed spans *)
  r_vetoes : int;
  r_errors : int;
}

val report : t -> row list
(** All transactions merged, sorted by self time descending. *)

val txn_report : t -> int -> row list
val txids : t -> int list

val reset : t -> unit
(** Drop the attribution table. *)

val pp_report : Format.formatter -> t -> unit
(** The [show profile] rendering: the merged table, then one per
    transaction. *)
