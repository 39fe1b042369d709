(** The metrics registry: named counters and fixed-bucket latency histograms.

    Any layer may create instruments at module-initialisation time (creation
    is find-or-create by name, so repeated creation is idempotent and cheap);
    the hot-path operations [incr]/[add]/[observe] compile down to a single
    branch when the registry is disabled, following the [Invariant]
    discipline: the hooks stay in production builds at near-zero cost.

    Enabled by [DMX_OBS=metrics] in the environment (arming the trace or
    statements sink arms it too: spans and statement stats without their
    counters would be blind — see [Emit]), or programmatically with
    {!set_enabled} — the shell and the bench harness do the latter.

    Besides native instruments, external always-on accounting (e.g.
    [Io_stats], the dispatch counters in [Relation]) is folded into the same
    exposition through named {e probes}: callbacks polled at
    [snapshot]/[dump]/[to_json] time, so there is exactly one place to read
    every number the substrate maintains. *)

type counter
type histogram

val enabled : unit -> bool
val set_enabled : bool -> unit

val counter : string -> counter
(** Find or create the counter registered under this name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val default_latency_buckets_us : float array

val histogram : ?buckets:float array -> string -> histogram
(** Find or create; [buckets] are ascending upper bounds in the observed
    unit (by convention microseconds, suffix the name [_us]); an implicit
    overflow bucket follows the last bound. Defaults to
    {!default_latency_buckets_us}. *)

val unregistered_histogram : ?buckets:float array -> string -> histogram
(** A free-standing histogram outside the global registry: not listed by
    {!all_histograms}, not zeroed by {!reset}, not in [to_json]. The query
    store allocates one per statement fingerprint — per-entry latency
    distributions must not pollute (or leak into) [dmx_metrics]. *)

val observe : histogram -> float -> unit
(** Record one observation into the first bucket whose bound satisfies
    [v <= bound] (Prometheus-style "le" boundaries), or the overflow
    bucket. A no-op while the registry is disabled. *)

val record : histogram -> float -> unit
(** {!observe} regardless of the registry gate — for histograms whose owner
    already decided to record (the statement aggregator's per-entry
    latencies, which offline analysis also fills). *)

val histogram_buckets : histogram -> float array
val histogram_counts : histogram -> int array
(** Copies; [counts] has one more cell than [buckets] (the overflow). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val quantile : histogram -> float -> float option
(** [quantile h q] estimates the [q]-quantile ([0. <= q <= 1.]) from the
    bucket counts by linear interpolation inside the covering bucket
    (Prometheus [histogram_quantile] style). Observations in the overflow
    bucket clamp to the last bound. [None] when the histogram is empty. *)

val all_histograms : unit -> (string * histogram) list
(** Every registered histogram with its name, sorted by name — the
    [dmx_metrics] system view derives its quantile rows from this. *)

val register_probe : string -> (unit -> (string * int) list) -> unit
(** Registering under an existing probe name replaces it (a fresh plan
    cache re-points the ["plan_cache"] probe at its own state) and drops
    the probe's {!reset} baseline. *)

val snapshot : unit -> (string * int) list
(** All counters plus all probe outputs, sorted by name. Probes are polled
    even while the registry is disabled — they read accounting the substrate
    maintains anyway — and report their value minus the baseline the last
    {!reset} captured. *)

val pp_dump : Format.formatter -> unit -> unit
(** Text exposition: counters (with probes folded in) then histograms. *)

val to_json : unit -> string

val reset : unit -> unit
(** Zero all native counters and histograms, and capture every probe's
    current samples as its baseline: probes mirror state owned elsewhere,
    so {!snapshot} reports them relative to the reset instead of zeroing
    the source. *)
