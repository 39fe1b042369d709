(** The one emission path for dmx telemetry.

    The paper's defining mechanism — attachments "invoked indirectly, as side
    effects of relation modifications" — is invisible control flow; this
    module makes it visible. Every instrumented site either opens a {e span}
    (a bracketed region with a duration and an outcome) or emits an {e event}
    (an instant point). There is one span stack, one id counter and one
    gate; closed spans and events fan out to whichever {e sinks} are armed:

    - [`Trace]: one JSON object per line, to [DMX_TRACE_FILE] (else stderr)
      or a sink set with {!set_line_sink}/{!open_file_sink}:
      {v
      {"ts":…,"ev":"span","id":7,"parent":6,"txn":3,"name":"attach.insert",
       "us":12.4,"outcome":"veto","attrs":{"attachment":"check",…}}
      v}
      Span records are written at close, so children precede their parent.
    - [`Events]: the {!Event_ring} behind [dmx_events].
    - [`Profile]: the {!Profile} aggregator behind [dmx_profile] and
      [show profile], charged by spans that carry an attribution [key].
    - [`Statements]: the {!Query_store} behind [dmx_statements] and
      [dmx_statement_plans], fed the exec record a [stmt.exec] span carries
      on {!exit}.
    - [`Metrics]: the {!Metrics} registry's gate (counters are not spans).

    Parenting follows dynamic nesting: the substrate executes one generic
    -interface operation at a time, so the innermost open span is the parent
    of whatever happens next, and every record carries its transaction id so
    a consumer can regroup interleaved transactions. Self time is computed
    once, on the stack: a keyed span's self time excludes the keyed spans it
    encloses.

    Sinks are armed by [DMX_OBS=metrics,trace,events,profile,statements] or
    {!arm}; arming [`Trace] or [`Statements] also arms [`Metrics]. With
    nothing armed every entry point is a single branch and allocates
    nothing; call sites guard attribute construction (and optional-argument
    boxing) on {!active}. All sink state lives in one record owned here. *)

type sink = [ `Metrics | `Trace | `Events | `Profile | `Statements ]

val sinks_of_string : string -> sink list
(** Parse a [DMX_OBS] value: comma-separated sink names, case-insensitive;
    unknown names are reported on stderr and skipped. *)

val active : unit -> bool
(** True when any span sink ([`Trace], [`Events], [`Profile],
    [`Statements]) is armed — the one gate instrumented sites branch on. *)

val arm : sink -> unit

val disarm : sink -> unit
(** Disarming [`Trace] flushes its file sinks. *)

val reset : sink -> unit
(** Clear one sink's accumulated state: metrics counters (see
    {!Metrics.reset}), the trace's emitted count, the ring, the profile
    table, or the statement store. *)

(** {1 Spans and events} *)

type span

val enter :
  ?txid:int -> ?key:Profile.key -> ?attrs:(string * Obs_json.t) list ->
  string -> span
(** Open a span. [txid] defaults to the enclosing span's transaction (0 at
    the root); [key] charges the span to the profile aggregator. While
    nothing is armed this returns a preallocated null span and the matching
    {!exit} is a no-op. *)

val exit :
  ?outcome:string -> ?attrs:(string * Obs_json.t) list ->
  ?exec:Query_store.exec -> span -> unit
(** Close the span and hand it to the armed sinks. [outcome] defaults to
    ["ok"]; instrumented dispatch sites use ["veto"], ["error"] and
    ["exn"]. [attrs] extend the span's attributes. [exec] — carried by
    [stmt.exec] — is folded into the statement store with the span's
    duration, and raises [plan.changed] / [stmt.slow] events under the span
    before it closes. *)

val event : ?txid:int -> ?attrs:(string * Obs_json.t) list -> string -> unit
(** Emit an instant record parented on the innermost open span. When [txid]
    is omitted the enclosing span's transaction id is inherited. *)

val with_span :
  ?txid:int -> ?key:Profile.key -> ?attrs:(string * Obs_json.t) list ->
  string -> (unit -> 'a) -> 'a
(** Bracket [f] in a span; an escaping exception closes it with outcome
    ["exn"] and re-raises. *)

val depth : unit -> int
(** Number of currently open spans — 0 at every transaction boundary (the
    sanitizer enforces this, see [Invariant.check_span_balance]). *)

(** {1 Sink state} *)

val ring : unit -> Event_ring.t
val profile : unit -> Profile.t
val store : unit -> Query_store.t

val set_line_sink : (string -> unit) -> unit
(** Route trace lines to a custom consumer (tests, the shell). *)

val open_file_sink : string -> unit
(** Route trace lines to [path] (append mode). The sink buffers writes —
    flushed by {!flush}, on [disarm `Trace], and at process exit — and
    honors the [DMX_TRACE_MAX_MB] cap (read when the sink opens): the first
    line that would exceed the budget is replaced with a single
    [{"ev":"truncated",…}] marker and subsequent lines are dropped. The
    default [DMX_TRACE_FILE] sink uses the same machinery. *)

val use_default_sink : unit -> unit
(** Back to [DMX_TRACE_FILE] (append) or stderr. *)

val flush : unit -> unit
(** Flush every open file sink. Whether a file sink has hit its
    [DMX_TRACE_MAX_MB] budget is exposed, with the ring's dropped count,
    through the ["telemetry_loss"] metrics probe ([trace.truncated],
    [events.dropped]), so telemetry loss is always visible. *)

val emitted : unit -> int
(** Trace lines written since start (or {!reset_for_testing}). *)

val reset_for_testing : unit -> unit
(** Clear the span stack and counters. Tests only. *)
