(** Bench regression gate: compare a fresh [BENCH_results.json] against
    the committed [bench/baseline.json], row by row, with per-metric
    directions. Directional metrics come from the deterministic
    simulated clock and are compared exactly: any move in the worse
    direction fails, an improvement passes.  [bin/profile.exe gate] is a
    thin shell over this module; tests drive it directly. *)

type direction =
  | Higher_better  (** throughput, availability: a drop regresses *)
  | Lower_better  (** timings, slowdowns: a rise regresses *)
  | Informational  (** counts with no inherent direction: never fail *)

val rule_for : string -> direction
(** Direction for a metric name: [req_per_sec], [availability],
    [hit_rate], [containment_score] and [scaling_efficiency] are
    higher-better; [ms_per_invert], [policy_width], [bytes_copied],
    [steal_count], the slowdown factors, and any simulated [*_ns]
    timing are lower-better; the host wall-clock [host_ns_per_run] and
    everything else are informational. *)

type row = {
  workload : string;
  backend : string;
  metric : string;
  value : float;
}

val key : row -> string
(** ["workload/backend/metric"] — row identity for the diff. *)

type doc = { quick : bool; rows : row list }

val parse_doc : string -> (doc, string) result
(** Parse a [BENCH_results.json]-shaped document (the [paper] field is
    ignored).  Errors name the first malformed row. *)

type verdict =
  | Pass  (** equal to the baseline *)
  | Improved of float
  | Regressed of float
  | Info of float
  | Missing  (** baseline row absent from the fresh results *)

type finding = { row : row; fresh : float option; verdict : verdict }

type report = {
  findings : finding list;  (** one per baseline row, in baseline order *)
  new_rows : row list;  (** fresh rows with no baseline — also fail *)
  quick_mismatch : bool;  (** quick-mode flag differs between the docs *)
}

val compare_docs : baseline:doc -> fresh:doc -> report

val failed : report -> bool
(** True iff any row [Regressed] or went [Missing], any fresh row has
    no baseline entry, or the quick flags disagree.  A deliberate
    change regenerates the baseline with
    [profile gate --write-baseline]. *)

val render : report -> string
(** Human-readable verdict lines (FAIL/ok/warn) plus a summary count
    and a final ["gate: PASS"]/["gate: FAIL"] line. *)
