(** Per-scope metric registry: the counters of {!Counter} and named
    latency histograms.

    A {e scope} is the name of the enclosure a metric is attributed to,
    or ["trusted"] for work done outside any enclosure. Each scope holds
    one [int] per counter; callers resolve a scope once ({!scope}) and
    bump it with {!incr}/{!add}: an array increment, with no hashing
    and no allocation. Enumeration order is first-use order (the first
    bump or histogram sample in a scope), so reports are deterministic;
    a scope that was resolved but never used is not listed. *)

type t

type scope
(** A scope's record. Stays valid across {!clear}. *)

val create : unit -> t

val scope : t -> string -> scope
(** Find or create the named scope's record (a hash lookup): owners
    resolve it once and keep it. *)

val scope_name : scope -> string

val context : scope -> string option
(** [None] for ["trusted"], else [Some name], preallocated. *)

val user_sig : scope -> string
(** ["<name>;user"], memoized for attribution. *)

val incr : scope -> Counter.t -> unit
val add : scope -> Counter.t -> int -> unit

val observe : scope -> string -> int -> unit
(** Record a latency sample (ns) into the scope's named histogram. *)

val counter : t -> scope:string -> Counter.t -> int
(** 0 when never incremented. *)

val total : t -> Counter.t -> int
(** Sum of the counter across every scope. *)

val scopes : t -> string list
(** First-use order. *)

val counters : t -> scope:string -> (string * int) list
(** The scope's non-zero counters, sorted by name. *)

val hists : t -> scope:string -> (string * Hist.t) list
(** Sorted by name. *)

val counter_names : t -> Counter.t list
(** Counters that are non-zero in some scope, sorted by name. *)

val clear_hists : t -> unit
(** Drop every histogram. Counters and first-use order are untouched:
    the layers' accessors read them for the machine's lifetime. *)
