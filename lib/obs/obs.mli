(** The observability sink: one per simulated machine.

    It owns the machine's counter registry ({!Metrics}), which is
    {e always on}: a counter bump is one array increment in the current
    scope, and the layers' [*_count] accessors read it back — it is the
    only store of every counter in {!Counter}. Everything else (events,
    spans, histograms, attribution, the witness) is {e disabled by
    default}: those emission points check {!enabled} first and do
    nothing (no clock cost, no allocation) when the sink is off, so
    benchmark numbers with observability disabled are identical to a
    build without it.

    Timestamps come from the caller-supplied [now] closure, which reads
    the {e simulated} clock — traces of deterministic workloads are
    byte-for-byte reproducible (DESIGN.md, "Telemetry"). *)

type t

val default_capacity : int

val default_enabled : bool ref
(** Consulted once, when a machine creates its sink. Tools that want a
    trace (e.g. [bin/trace_dump.exe]) set this before booting a
    runtime; the library default is [false]. *)

val with_tracing : ?obs:bool -> ?witness:bool -> (unit -> 'a) -> 'a
(** Run [f] with {!default_enabled} set to [obs] and
    {!Witness.default_enabled} to [witness] (both default [true]),
    restoring both afterwards — also when [f] raises. Machines booted
    inside [f] keep the setting they were created with. *)

val create : ?capacity:int -> ?enabled:bool -> now:(unit -> int) -> unit -> t
(** [enabled] defaults to [!default_enabled]. *)

val enabled : t -> bool
val enable : t -> unit
val disable : t -> unit

val set_backend : t -> string -> unit
(** Stamp subsequent events with a backend name (default ["baseline"];
    LitterBox sets this at init). *)

val backend : t -> string

type scope = Metrics.scope

val scope : t -> string -> scope
(** The named scope's record; resolve it once and keep it. *)

val trusted : t -> scope
(** The ["trusted"] scope: work done outside any enclosure. *)

val set_context : t -> scope -> unit
(** The innermost active enclosure's scope; maintained by LitterBox on
    every environment switch, stamped onto events and used as the
    default metric scope. Starts at {!trusted}. *)

val context : t -> string option
(** [None] while the context is {!trusted}. *)

(** {2 Counters (always on)} *)

val incr : t -> Counter.t -> unit
(** Bump a counter in the current scope. *)

val add : t -> Counter.t -> int -> unit
val incr_in : scope -> Counter.t -> unit

val total : t -> Counter.t -> int
(** The counter summed over every scope: what the accessors report. *)

(** {2 Emission (no-ops while disabled)} *)

val emit : t -> ?dur:int -> Event.kind -> unit
(** Record an event that {e ended} now and took [dur] simulated ns
    (default 0: an instant event). *)

val observe : t -> ?scope:string -> string -> int -> unit
(** Record a latency sample into a per-scope histogram. [scope]
    defaults to the current context. *)

(** {2 Spans and attribution} *)

val span_enter :
  t -> ?lane:string -> name:string -> category:Span.category -> unit -> int
(** Open a causal span ({!Span.enter}); [lane] defaults to the current
    context scope. Returns [-1] when the sink is disabled — callers pass
    the id straight to {!span_exit} on every exit path without checking. *)

val span_exit : t -> int -> unit
(** Close a span opened by {!span_enter}. No-op on [-1] or when
    disabled. *)

val span_mark :
  t -> ?lane:string -> name:string -> category:Span.category -> unit -> unit
(** Record an instant span (fault delivery, fiber kill). *)

val clock_tick : ?core:int -> t -> int -> unit
(** Feed one clock advance into the attribution ledger, charged to the
    innermost open span (or the current scope's ["user"] cell) and to
    [core]'s per-core ledger (the machine passes the clock's current
    lane; default 0). Wired as the simulated clock's observer when the
    sink is enabled at machine creation; never call it from anywhere
    else or conservation breaks. *)

val spans : t -> Span.t
val attribution : t -> Attrib.t

val witness : t -> Witness.t
(** The machine's witness recorder ({!Witness}). Carried here so every
    emission site that already holds the sink can reach it, but gated
    independently: the witness has its own enabled flag
    ([Witness.default_enabled], consulted at {!create} time) so policy
    mining can run with the event ring off and vice versa. *)

(** {2 Introspection} *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

val metrics : t -> Metrics.t
val total_events : t -> int
val dropped_events : t -> int
val capacity : t -> int

val reset : t -> unit
(** Drop all events, spans, histograms and attribution (the ledger
    re-epochs at the current clock value) and the witness. Counters are
    not zeroed: the [*_count] accessors read them for the machine's
    lifetime, so diff two readings to count a window. Keeps
    enabled/backend/context and every resolved {!scope}. *)
