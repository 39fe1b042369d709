(** Offline analysis of the JSON-Lines traces written by [Emit]'s trace
    sink.

    [dmx_prof.exe] (and the golden tests) load a [DMX_TRACE_FILE] capture
    and answer the latency questions the raw log cannot: which root span
    dominated, what does each relation's and attachment type's latency
    distribution look like, and which (transaction, lock) pairs conflicted.

    Per-relation and per-attachment quantiles are {e nearest-rank} over the
    raw span samples — exact and deterministic. Statement quantiles come
    from the statement store's bucketed histograms, like the live view. *)

type kind = Span | Event | Truncated

type record = {
  r_ts : float;
  r_kind : kind;
  r_id : int;
  r_parent : int;
  r_txn : int;
  r_name : string;
  r_us : float;  (** 0 for events *)
  r_outcome : string option;
  r_attrs : (string * Obs_json.t) list;
}

val parse_line : string -> (record, string) result

val load_file : string -> record list * string list
(** Records in file order plus per-line parse errors (blank lines are
    skipped). *)

type node = { n_rec : record; mutable n_kids : node list }

val forest : record list -> node list
(** Spans re-nested by parent id. Roots (parent 0 or unknown — the parent
    span may have been truncated away) and siblings are sorted slowest
    first. *)

val critical_path : record list -> record list
(** From the slowest root span, follow the heaviest child at every level. *)

val top_spans : ?n:int -> record list -> record list

val quantile : float list -> float -> float option
(** Nearest-rank quantile of raw samples; [None] on an empty list. *)

type group_stats = {
  g_key : string;
  g_count : int;
  g_vetoes : int;
  g_p50 : float;
  g_p95 : float;
  g_p99 : float;
}

val per_relation : record list -> group_stats list
(** [relation.*] spans grouped by their [rel] attribute, sorted by key. *)

val per_attachment : record list -> group_stats list
(** [attach.*] spans grouped by their [attachment] attribute. *)

val statements : record list -> Query_store.entry list
(** Per-fingerprint statistics from the [stmt.exec] spans, folded through
    {!Query_store.record} — the same aggregation the live [dmx_statements]
    view runs, so the two agree on calls, errors, rows and latency
    quantiles. Sorted by call count (ties by fingerprint). I/O, WAL and lock
    totals stay zero: the trace does not carry them. *)

val statement_json : Query_store.entry -> Obs_json.t
(** One [dmx_prof --statements --json] element: fingerprint, statement,
    calls, errors, rows, p50/p95 us and plan hashes (oldest first). *)

type contention = {
  c_waiter : int;
  c_holder : int;
  c_resource : string;
  c_mode : string;
  c_count : int;
}

val lock_contention : record list -> contention list
(** Aggregated from [lock.conflict] events: one row per
    (waiter transaction, holding transaction, resource, mode). *)

type victim = { v_txn : int; v_cycle : int list }

val deadlock_victims : record list -> victim list

val truncated : record list -> bool
(** True when the capture hit the [DMX_TRACE_MAX_MB] cap. *)

val pp_report : ?top:int -> Format.formatter -> record list -> unit
(** The full text report: summary line, critical path, top-N spans,
    per-relation and per-attachment quantile tables, statements, lock
    contention, deadlock victims. *)

val to_json : ?top:int -> record list -> Obs_json.t
(** The same report as one JSON object ([dmx_prof --json]): keys [summary],
    [critical_path], [top_spans], [per_relation], [per_attachment],
    [statements], [lock_contention], [deadlock_victims] — stable for CI
    diffing. *)
