(** The experiment registry: every ablation and cross-backend claim of
    the evaluation, declared once.

    An experiment runs {e legs} — a {!Scenarios.registry} scenario under
    one backend, core count, flag setting and size — and compares them
    in {e pairs}, each with a judge that returns the problems it finds.
    [bench] runs every experiment and writes its [BENCH_results.json]
    rows; [profile NAME] runs one, prints its legs and exits non-zero
    when a judge finds a problem. Both run legs through a {!runner}, so
    a leg two sections share (the default-flags http leg of Table 2, the
    fast-path and ring "on" legs, the policy-mining witness-off leg)
    runs once. *)

(** {2 Legs} *)

type leg = {
  scenario : string;  (** a {!Scenarios.registry} name *)
  config : Scenarios.config;
  cores : int;  (** simulated cores, pinned so rows never follow [ENCL_CORES] *)
  fastpath : bool option;
      (** [Some b] forces {!Encl_sim.Fastpath} to [b]; [None] keeps the
          process setting *)
  sysring : bool option;  (** likewise for {!Encl_sim.Sysring} *)
  zerocopy : bool option;  (** likewise for {!Encl_sim.Zerocopy} *)
  slow_seccomp : bool;
      (** charge every seccomp filter walk at [seccomp_eval], i.e. turn
          the trusted-PKRU fast path's cost saving off *)
  requests : int option;
      (** requests (queries for pq); [None] is the scenario's default *)
  conns : int option;
      (** client connections (pq: workers); [None] is the default *)
  traced : bool;  (** observability sink and witness recorder on *)
}

val leg :
  ?cores:int -> ?fastpath:bool -> ?sysring:bool -> ?zerocopy:bool ->
  ?slow_seccomp:bool -> ?conns:int -> ?traced:bool -> quick:bool -> string ->
  Scenarios.config -> leg
(** [leg ~quick scenario config]: one core, the process's flags, and
    the scenario's CI size when [quick], else its default size. Every
    section that runs a scenario sizes it here, so equal legs are equal
    runs. *)

type result = { leg : leg; outcome : Scenarios.outcome }

val runner : unit -> leg -> result
(** A fresh memoizing leg runner. Flags a leg leaves alone are resolved
    to the process setting first, so a leg that forces a flag to its
    current value and one that leaves it alone run once. *)

(** {2 What a leg measured} *)

val req_per_sec : result -> float
(** The scenario's request rate; [0.] for bild and pq. *)

val faults : result -> int
(** LitterBox-accounted enclosure faults ([0] on the Baseline). *)

val syscalls : result -> int
(** Kernel system calls outside the memory-management family. *)

val metrics : result -> (string * float) list
(** Every figure of the run by name: [req_per_sec] or [ns_per_op],
    [faults], [syscalls], LitterBox and kernel counters, [switch_ns] and
    [access_ns] (clock categories), [cpu_ns] and [wall_ns] (whole run,
    all cores and makespan), scheduler counters and, when the leg ran
    traced, the attribution shares [switch_share] and
    [enforcement_share] (switch + seccomp, % of wall time) and the mean
    [prolog_ns]/[epilog_ns] per switch. *)

val label : result -> string
(** Scenario, backend, core count when not 1, and every flag the leg
    turned off. *)

val same_enforcement : result -> result -> string list
(** A problem per count that differs between the two runs: faults and
    workload system calls. *)

(** {2 Experiments} *)

type pair = {
  on : leg;  (** the treatment *)
  off : leg;  (** the control it is measured against *)
  judge : result -> result -> string list;
      (** [judge on off]: the problems found, [[]] when the claim holds *)
}

type row = { workload : string; backend : string; metric : string; value : float }

type t = {
  name : string;  (** also the [profile] subcommand *)
  doc : string;  (** the claim in one sentence, with its threshold *)
  shows : string list;  (** the {!metrics} printed per leg *)
  pairs : quick:bool -> pair list;
  rows : (leg -> result) -> quick:bool -> row list;
      (** the [BENCH_results.json] rows, read through the given runner *)
  artifact : string option;
      (** default path of the JSON file [profile] writes the legs to *)
}

val registry : t list
(** [overhead], [fastpath], [sysring], [zerocopy], [crossover], [smp],
    [seccomp], in that order. *)

val legs : t -> quick:bool -> leg list
(** Every leg of the pairs, each once, control before treatment, with
    the flags it leaves alone resolved as {!runner} does. *)

val problems : t -> (leg -> result) -> quick:bool -> string list
(** Every pair judged, through the given runner. *)

val describe : t -> result -> string
(** One line: {!label} and the experiment's [shows] figures. *)

val artifact : t -> result list -> Encl_obs.Export.Json.t
(** [{"experiment": NAME, "rows": [...]}], one row per result: the leg's
    settings and all its {!metrics}. *)
