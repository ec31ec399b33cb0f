(** LitterBox: the language-independent enclosure-enforcement backend
    (paper §4, §5.3).

    The API mirrors the paper's six entry points:
    - {!init} (and, for dynamic languages, {!register_package} /
      {!register_enclosure}, which may be called repeatedly);
    - {!prolog} / {!epilog}: the switch into and out of an enclosure's
      execution environment;
    - {!syscall}: system-call filtering ([FilterSyscall]);
    - {!transfer}: dynamic repartitioning of heap memory between package
      arenas;
    - {!execute}: environment switch for user-level thread scheduling.

    Four backends are supported, each an implementation of
    {!Backend.S}: {!Mpk} (PKRU switches, seccomp filtering indexed by
    PKRU, [pkey_mprotect] transfers), {!Vtx} (per-enclosure page
    tables, switches as guest system calls, host system calls via
    hypercall), {!Lwc} (kernel-held per-context memory views, switches
    as ordinary system calls) and {!Sfi} (software fault isolation:
    near-zero-cost sandbox crossings, every load/store paying a
    mask-and-bounds check — the mirror-image trade-off of VTX). *)

type backend = Backend.t = Mpk | Vtx | Lwc | Sfi

val backend_name : backend -> string
(** [Lwc] is the hardware-free alternative the paper's related-work
    section sketches (light-weight contexts): per-enclosure memory views
    held by the kernel, switches as ordinary system calls — no MPK keys,
    no VM, correspondingly slower switches but baseline-cost system
    calls. [Sfi] is RLBox/Wasm-style instrumentation: no hardware
    switches at all; enforcement rides the instrumented access sequence
    and the ordinary seccomp trap path (dispatching on a synthetic
    per-sandbox tag in place of the PKRU). *)

exception Fault of { reason : string; enclosure : string option }
(** An enclosure violated its policy, or a switch was rejected. "A fault
    stops the execution of the closure and aborts the program." *)

exception Quarantined of { enclosure : string; faults : int }
(** Raised by {!prolog} when the target enclosure has exhausted its fault
    budget: fail-closed degradation — the enclosure can no longer be
    entered (no cost is charged, no new fault recorded) until a trusted
    caller {!unquarantine}s it. *)

type t

(** {2 Initialization} *)

val init :
  machine:Machine.t -> backend:backend -> image:Encl_elf.Image.t ->
  ?binary_scan:(string * string) list ->
  ?clustering:bool ->
  unit ->
  (t, string) result
(** Bulk initialization for statically linked languages: loads the image,
    validates the configuration (alignment, overlap, policy
    satisfiability), computes every enclosure's memory view, clusters
    meta-packages, and programs the chosen hardware. [binary_scan] is the
    list of [(package, function)] sites found to write the PKRU register;
    LB_MPK refuses any outside ["litterbox.user"] (the ERIM-style scan,
    §5.3). [clustering] (default [true]) enables meta-package clustering;
    disabling it gives every package its own protection key, which makes
    LB_MPK initialization fail beyond 15 packages — the ablation
    motivating the paper's §5.3 optimization. *)

val machine : t -> Machine.t
val backend : t -> backend
val graph : t -> Encl_pkg.Graph.t

(** {2 Dynamic registration (Python-style frontends)} *)

val register_package :
  t ->
  name:string ->
  imports:string list ->
  sections:Encl_elf.Section.t list ->
  (unit, string) result
(** Register a lazily imported module and its (already mapped) sections.
    Existing enclosure views are recomputed: by default new packages
    become available to executing enclosures unless their policies
    restrict them (paper §5.2). Counts toward the delayed-initialization
    cost. *)

val register_enclosure :
  t ->
  name:string ->
  owner:string ->
  deps:string list ->
  policy:string ->
  closure_addr:int ->
  (unit, string) result
(** [deps] are the closure's direct dependencies (what its body invokes);
    the default view is their transitive closure. *)

val add_import : t -> importer:string -> imported:string -> (unit, string) result
(** Record a new import edge discovered at run time and recompute views. *)

(** {2 Policy overrides (the policy miner's enforcement hook)} *)

val set_policy_override : enclosure:string -> string -> unit
(** Replace the policy literal an enclosure named [enclosure] would be
    built with — consulted whenever an enclosure descriptor is created
    ({!init} for static image enclosures, {!register_enclosure} for
    dynamic ones). Process-global, like the defense registry: the policy
    miner's verify and minimality probes re-boot whole runtimes around
    it. Remember to {!clear_policy_overrides} afterwards. *)

val clear_policy_overrides : unit -> unit

(** {2 Switches} *)

val prolog : t -> name:string -> site:string -> unit
(** Enter the named enclosure's execution environment. Validates the
    call-site against the [.verif] list and enforces the nesting rule: a
    switch may only enter an equal-or-more-restrictive environment.
    Raises {!Fault} otherwise. *)

val epilog : t -> site:string -> unit
(** Leave the innermost enclosure, returning to the enclosing (less
    restrictive) environment. *)

val in_enclosure : t -> string option
(** Name of the innermost active enclosure, if any. *)

(** {2 System calls} *)

val syscall : t -> Encl_kernel.Kernel.call ->
  (int, Encl_kernel.Kernel.errno) result
(** Dispatch a system call under the current environment's filter. LB_MPK
    defers to the kernel's seccomp program (killed calls raise
    {!Fault}); LB_VTX checks the filter in the guest OS and pays a
    hypercall round-trip for permitted calls. *)

(** {2 Syscall ring}

    The submission/completion ring is the kernel's
    ({!Encl_kernel.Kernel.ring_submit}); {!init} hooks it. At submit
    time LitterBox records the enclosure stack, so each entry is always
    evaluated under the filter in force when it was enqueued. At drain
    time it supplies the batch's crossing: one trap with per-entry
    seccomp dispatch under the submitter's PKRU or sandbox tag
    (MPK/SFI), one trap with the per-context filter checked in the
    kernel (LWC), or the guest-side filter and a single VM EXIT (VTX).
    {!epilog} drains the ring before the innermost environment leaves
    the stack (no entry may be evaluated under a later enclosure's
    filter, and none outlives its enclosure). Verdicts, fault/quarantine
    accounting and errno results are identical to {!syscall}'s, in
    submission order; a denied entry completes with the {!Fault} the
    direct path would have raised, accounted at the drain. *)

(** {2 Runtime hooks} *)

val transfer :
  t -> addr:int -> len:int -> to_pkg:string -> site:string -> unit
(** Move a memory section into [to_pkg]'s arena, updating every execution
    environment (paper §4.2). Must come from a verified call-site. *)

val transfer_range :
  t -> addr:int -> len:int -> chunk:int -> to_pkg:string -> site:string -> unit
(** Transfer [len] bytes at [addr] in [chunk]-byte pieces. Registry and
    enforcement effects are exactly those of the equivalent loop of
    {!transfer} calls (one Arena section per chunk), but with the fast
    path enabled the adjacent chunks share a single hardware update —
    one [pkey_mprotect] (MPK) or page-table pass (VTX/LWC) over the
    whole range. [addr] and [chunk] must be page-aligned for the batched
    update to cover the same pages as the loop. With
    {!Encl_sim.Fastpath.enabled} false this {e is} the loop. *)

val owner_of : t -> addr:int -> string option
(** Which package owns the page containing [addr] (section registry). *)

type env_ref
(** A captured execution-environment stack, carried by a user-level
    thread. *)

val capture_env : t -> env_ref
val trusted_env_ref : t -> env_ref

val env_scope : env_ref -> string
(** Innermost enclosure name of a captured environment, or ["trusted"] —
    the attribution lane a fiber carrying it runs in. *)

val env_matches : t -> env_ref -> bool
(** Whether the current environment stack already equals the captured one
    (schedulers use this to skip redundant [execute] switches). *)

val env_refs_equal : env_ref -> env_ref -> bool
(** Whether two captured environment stacks denote the same enclosure
    nesting (the SMP scheduler's core-affinity comparison: does a
    fiber's environment match what a given core last had installed). *)

val install_core_env : t -> env_ref -> unit
(** SMP core hop: re-install the environment a core already had loaded
    when the interleaver last left it. Costs nothing, counts no switch
    and keeps the core's TLB warm — on real hardware each core has its
    own PKRU register and CR3, so moving the interleaver between cores
    rewrites nothing. The scheduler must only pass an environment this
    core previously installed through the costed paths ({!execute},
    {!prolog}); gate integrity is still enforced. *)

val execute : t -> env_ref -> site:string -> unit
(** Scheduler switch: resume the captured environment (paper's [Execute]
    hook). Unlike {!prolog}, this transition is not subject to the
    nesting rule — the scheduler may resume any previously captured
    (hence already validated) environment. *)

(** {2 Trusted excursions} *)

val with_trusted : t -> (unit -> 'a) -> 'a
(** Controlled switch to the trusted environment and back, paying the
    backend's switch costs both ways (used by runtimes for GC /
    reference-count updates on read-only objects, paper §5.2). *)

(** {2 Introspection} *)

val view_of : t -> string -> View.t option

val current_access : t -> string -> Types.access option
(** Access the innermost active enclosure has on a package; [None] when
    running trusted. Language runtimes use this to decide whether a
    metadata update (e.g. a reference count on a read-only object) needs
    a controlled switch to the trusted environment (paper §5.2). *)

val pkru_of : t -> string -> Mpk.pkru option
(** MPK backend only. *)

val cluster : t -> Cluster.t
val enclosure_names : t -> string list

val enclosure_deps : t -> string -> string list option
(** Direct dependencies the named enclosure was declared with (the
    miner recomputes its base dependency-closure view from these). *)

val policy_of : t -> string -> Policy.t option
(** The parsed policy the named enclosure is currently enforcing
    (after any {!set_policy_override}). *)

val switch_count : t -> int

val switch_elided_count : t -> int
(** How many of {!switch_count}'s switches took the elision fast path
    (target environment already installed; see {!Encl_sim.Fastpath}).
    Always [<= switch_count]; 0 with the fast path disabled. Mirrored in
    the obs "switch_elided" metric. *)

val transfer_count : t -> int

val transfer_coalesced_count : t -> int
(** How many of {!transfer_count}'s chunk transfers were batched by
    {!transfer_range} into shared hardware updates. Mirrored in the obs
    "transfer_coalesced" metric. *)

val fault_count : t -> int

val ring_drained_count : t -> int
val ring_batches_count : t -> int
(** The kernel ring's {!Encl_kernel.Kernel.ring_drained_count} and
    {!Encl_kernel.Kernel.ring_batches_count}. *)

val guest_denied_count : t -> int
(** Calls denied guest-side (VTX/LWC filter checks, direct or drained)
    that therefore never reached the kernel's syscall counters. Counted
    regardless of whether observability is enabled — trace cross-checks
    use it to reconcile obs verdict totals with the kernel count. *)

val vmexit_count : t -> int
(** VM EXITs taken so far (VTX backend; 0 elsewhere). *)

val sfi_masked_access_count : t -> int
(** Instrumented loads/stores executed so far (SFI backend; 0
    elsewhere). Mirrored in the obs "sfi_masked_access" metric. *)

val sfi_guard_fault_count : t -> int
(** Masked accesses whose address escaped the sandbox and landed in a
    guard zone (each also recorded as an ordinary fault). *)

val note_tainted_verified : t -> unit
val note_tainted_rejected : t -> unit
(** Called by the {!Enclosure.Tainted} boundary layer for each
    successful / failed verification of a tainted value, so the counts
    sit with the rest of the enforcement telemetry (obs mirrors
    "tainted_verified" / "tainted_rejected"). *)

val tainted_verified_count : t -> int
val tainted_rejected_count : t -> int

val witness : t -> Encl_obs.Witness.t
(** The machine's witness recorder ({!Encl_obs.Witness}): every tap in
    this runtime — the direct syscall path, the ring drains (attributed
    to the {e submitting} enclosure via the SQE), the retag excursion,
    transfers, trusted excursions, tainted-boundary verdicts, and the
    per-access CPU hook — records into it when witnessing is enabled. *)

val gate_violation_count : t -> int
(** Gate-hardening violations across the layers: forged environment
    writes and unregistered-gate entries (CPU call-gate integrity),
    syscalls killed by origin verification and mm-shaping calls denied
    to enclosures (kernel). Mirrored 1:1 into the obs counter
    ["gate_violation"]; zero on benign traffic. *)

val fault_log : t -> string list
(** Root-cause traces of the faults seen so far, most recent first (the
    paper's LB_VTX "prints a trace of the root-cause"). Memory faults are
    annotated with the owning package of the offending address. Every
    fault — raised, CPU, or seccomp kill — contributes exactly one
    entry, matching {!fault_count} and the obs ["fault"] total. *)

(** {2 Quarantine}

    Each enclosure carries a fault counter; when it reaches the
    LitterBox-wide budget the enclosure is {e quarantined} and further
    {!prolog} calls raise {!Quarantined} without entering it. The budget
    defaults to [max_int] (quarantine disabled). *)

val set_fault_budget : t -> int -> unit
(** Set the per-enclosure fault budget (>= 1, else [Invalid_argument]).
    Applies to faults recorded from then on. *)

val fault_budget : t -> int
val quarantined : t -> string -> bool

val enclosure_fault_count : t -> string -> int
(** Faults attributed to the named enclosure so far. *)

val unquarantine : t -> string -> (unit, string) result
(** Trusted reset: clear the enclosure's quarantine flag and its fault
    counter. Errors on an unknown enclosure name. *)

(** {2 Fault absorption} *)

val absorb_fault : t -> exn -> string option
(** [absorb_fault t e] is [Some message] when [e] belongs to the fault
    family ({!Fault}, {!Quarantined}, {!Cpu.Fault},
    {!Encl_kernel.Kernel.Syscall_killed}) and [None] otherwise. A
    {!Cpu.Fault} or seccomp kill that escaped the lower layers uncounted
    is recorded here (counter, log, obs, quarantine budget), attributed
    to the enclosure named by the faulting environment label; [Fault]
    and [Quarantined] were already accounted at their raise site. The
    supervisor layers (scheduler, [run_protected]) are its callers. *)

val run_protected : t -> (unit -> 'a) -> ('a, string) result
(** Run [f], mapping enclosure faults ({!Fault}, {!Quarantined},
    {!Cpu.Fault}, seccomp kills) to [Error message]. The paper aborts
    the program; a library embedding reports the fault to its caller
    instead. *)
