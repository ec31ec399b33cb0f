(** The simulated operating system: system-call dispatch.

    Every system call consumes the trap cost, an optional seccomp
    evaluation (when a filter is installed — the LB_MPK configuration), and
    a per-call service cost, then executes against the {!Vfs}, {!Net} and
    {!Mm} subsystems. User-space buffers are copied through the CPU using a
    trusted environment (kernel accesses are not subject to the enclosure's
    view — enclosures restrict {e which} calls run, not kernel copies).

    The LB_VTX hypercall detour (VM EXIT / RESUME) is added by the backend,
    not here. *)

type errno =
  | Eperm
  | Enoent
  | Ebadf
  | Eagain
  | Einval
  | Enomem
  | Eexist
  | Enotdir
  | Eisdir
  | Eacces
  | Econnrefused
  | Epipe
  | Enosys
  | Eintr

val errno_name : errno -> string

type open_flag = O_rdonly | O_wronly | O_rdwr | O_creat | O_trunc | O_append

type call =
  | Open of { path : string; flags : open_flag list }
  | Close of int
  | Read of { fd : int; buf : int; len : int }
  | Write of { fd : int; buf : int; len : int }
  | Stat of string
  | Unlink of string
  | Mkdir of string
  | Readdir of string
  | Socket
  | Connect of { fd : int; ip : int; port : int }
  | Bind of { fd : int; port : int }
  | Listen of int
  | Accept of int
  | Send of { fd : int; buf : int; len : int }
  | Recv of { fd : int; buf : int; len : int }
  | Recv_ring of { fd : int }
      (** Fill the next rx-ring descriptor from a stream socket. To the
          seccomp filter this {e is} recvfrom(2): same number, same
          arg0, so ring and classic receives are filtered identically.
          Returns slot index + 1 ([0] = EOF, like recv); the payload
          length is in the slot's 8-byte header. Requires an attached
          ring ({!attach_rxring}), else [EINVAL]. *)
  | Sendfile of { out_fd : int; in_fd : int; off : int; len : int }
      (** Splice [len] bytes of [in_fd] (a readable file) starting at
          [off] to [out_fd] (a stream socket) without entering user
          memory. With {!Zerocopy} off the same call bounces the
          payload through user memory (classic read+write), charging
          the two memcpy passes and the [bytes_copied] ledger — the
          result and the filter verdict are identical either way. *)
  | Getuid
  | Getpid
  | Gettimeofday
  | Clock_gettime
  | Nanosleep of int
  | Sched_yield
  | Futex
  | Getrandom of { buf : int; len : int }
  | Mmap of { len : int }
  | Munmap of { addr : int; len : int }
  | Pkey_mprotect of { addr : int; len : int; key : int }
  | Pkey_alloc
  | Pkey_free of int
  | Epoll_wait
  | Epoll_ctl of int
  | Setsockopt of int
  | Pipe
      (** returns the read end's fd; the write end is that fd + 1 *)
  | Dup of int
  | Lseek of { fd : int; off : int; whence : int }
      (** whence: 0 = SET, 1 = CUR, 2 = END *)
  | Fstat of int
  | Chmod of { path : string; mode : int }
  | Getcwd of { buf : int; len : int }

val sysno_of_call : call -> Sysno.t

exception Syscall_killed of { nr : Sysno.t; env : string }
(** Raised when the installed seccomp filter returns [Kill]: the paper's
    fault semantics — the program is stopped. *)

exception Exited of int
(** Raised by the [Exit] path (not in {!call}: the runtime exits by calling
    {!exit_program}). *)

type t

val create :
  clock:Clock.t ->
  costs:Costs.t ->
  cpu:Cpu.t ->
  trusted_env:Cpu.env ->
  vfs:Vfs.t ->
  net:Net.t ->
  mm:Mm.t ->
  obs:Encl_obs.Obs.t ->
  t
(** [obs] receives a counter, a latency observation, and a ring event per
    system call (verdict [Allowed] or, on a seccomp kill, [Denied]) when
    enabled; when disabled the dispatch path does not touch it. *)

val vfs : t -> Vfs.t
val net : t -> Net.t
val mm : t -> Mm.t
val clock : t -> Clock.t

val install_seccomp : t -> Bpf.program -> (unit, string) result
(** Installing a program also flushes the seccomp verdict cache. *)

val seccomp_invalidate : t -> unit
(** Flush the seccomp verdict cache. LitterBox calls this on any transfer
    that changes a meta-package's rights vector (the PKRU no longer means
    what the cached verdicts assumed). *)

val seccomp_cache_stats : t -> int * int
(** [(hits, misses)] of the verdict cache; both zero with the fast path
    disabled. *)

val seccomp_cache_hit_rate : t -> float
(** hits / (hits + misses), and a well-defined 0.0 before any probe. *)

val set_injector : t -> Encl_fault.Fault.t -> unit
(** Attach a chaos injector and register the kernel's hook points:
    [kernel.transient_eintr] / [kernel.transient_eagain] (a blocking
    network call — [Recv], [Send], [Accept] — returns the errno without
    executing; the operation succeeds when retried) and
    [kernel.seccomp_delay] (the verdict stands but arrives late).
    Consultations carry the CPU's current environment label. *)

val syscall : t -> call -> (int, errno) result
(** Full dispatch: trap cost, syscall-origin verification, seccomp (PKRU
    read from the CPU's current environment), service. Returns a small
    integer (fd, byte count, value, address for [Mmap]) or an errno.

    Two gate-hardening checks run before the seccomp program, both free
    of simulated cost: under {!Defense.Syscall_origin} a trap from an
    untrusted environment (label prefix ["enc:"]) outside a registered
    call gate raises {!Syscall_killed} ("syscall as a privilege"), and
    under {!Defense.Mm_guard} the address-space-shaping calls ([Mmap],
    [Munmap], [Pkey_mprotect], [Pkey_alloc], [Pkey_free]) are denied to
    untrusted environments outright — conceptually seccomp rules
    prepended to every enclosure filter, kept out of the BPF program so
    the VTX/LWC configurations are covered and MPK step counts don't
    move. *)

val syscall_in_batch : t -> call -> (int, errno) result
(** Identical dispatch to {!syscall} — same recording, seccomp check
    against the CPU's current environment, chaos hooks, service cost and
    observability — except the per-call trap cost is replaced by the
    cheaper in-kernel ring-entry dispatch cost: the enclosing ring drain
    paid the single trap/exit for the whole batch (see {!ring_drain}). *)

(** {2 The syscall ring}

    An io_uring-style submission/completion ring, for every program when
    {!Encl_sim.Sysring} is on. Submitting costs [ring_submit] and no
    crossing. A drain pays one crossing per non-empty queue, then runs
    each entry through {!syscall_in_batch} in submission order. Each
    simulated core owns a queue (the clock's lane at submit time,
    capacity 64: a full queue drains first) and drains it on its own
    lane; flushing a sibling core's queue counts as an IPI. Counters are
    mirrored in the obs metrics ["ring_submitted"], ["ring_drained"],
    ["ring_batches"] and ["ring_ipi"], and each drained queue runs in a
    ["ring_drain:<n>"] span.

    Unprotected, the crossing is one {!trap}. An enforcement layer
    replaces it with {!set_ring_hooks}: LitterBox captures the
    submitter's enclosure stack and checks each entry under it. *)

type ring_ctx = ..
(** Submit-time context, extended by whoever hooks the ring. *)

type ring_ctx += Unprotected  (** captured when no hooks are set *)

type completion
(** Pending until a drain posts the result, or the exception the direct
    path would have raised at the call site. *)

type sq_entry = { sq_call : call; sq_ctx : ring_ctx; sq_comp : completion }

val set_ring_hooks :
  t -> capture:(unit -> ring_ctx) -> cross:(sq_entry list -> unit) -> unit
(** [capture] runs at each submission; [cross] replaces the unprotected
    crossing of each drained queue and must complete every entry. *)

val trap : t -> unit
(** Charge one [syscall_base] kernel entry (a batch's crossing). *)

val complete : sq_entry -> (int, errno) result -> unit
val complete_fault : sq_entry -> exn -> unit
val ring_submit : t -> call -> completion
val ring_drain : t -> unit
val completion_ready : completion -> bool

val ring_await : t -> completion -> (int, errno) result
(** The result, draining first if still pending; re-raises a stored
    exception. *)

val ring_pending : t -> int
val ring_submitted_count : t -> int
val ring_drained_count : t -> int
(** [ring_submitted_count = ring_drained_count + ring_pending]. *)

val ring_batches_count : t -> int
val ring_ipi_count : t -> int

val trap_count : t -> int
(** [syscall_base] kernel entries: direct {!syscall}s, drained batches
    and {!exit_program}. *)

val exit_program : t -> int -> 'a
(** Raises {!Exited} after accounting an [exit] system call. *)

(** {2 The rx view ring (zero-copy data plane)}

    Socket receive buffers exposed to the owning enclosure as a
    descriptor ring of read-only spans: the kernel fills slots from the
    socket ({!call.Recv_ring}), the enclosure reads header + payload in
    place (its policy grants R on the ring arena's package), and
    releases the descriptor with {!ring_consume} — an io_uring-style
    shared-memory head advance, not a trap. A socket that closes with
    unconsumed descriptors gets them force-reclaimed, so at quiesce
    granted = consumed + reclaimed (cross-checked by trace_dump). *)

val ring_hdr_bytes : int
(** Per-slot header: 8 bytes of payload length, payload follows. *)

val attach_rxring : t -> base:int -> slots:int -> slot_bytes:int -> unit
(** Attach the machine's rx ring over [slots * slot_bytes] bytes of
    guest memory at [base] (the runtime owns granting the R view).
    Raises [Invalid_argument] on bad geometry. *)

val ring_consume : t -> int -> unit
(** Release a granted descriptor (slot index) so the kernel may refill
    it. Raises [Invalid_argument] if the slot is not currently granted. *)

val rxring_counters : t -> int * int * int
(** [(granted, consumed, reclaimed)]; all zero with no ring attached. *)

val rxring_inflight : t -> int
(** Descriptors granted but not yet consumed or reclaimed. *)

val bytes_copied_count : t -> int
(** Total bytes the kernel moved through user memory: every
    [copy_to_user]/[copy_from_user] pass plus the flag-off bounce
    passes of the zc-capable paths. Mirrored into obs as
    ["bytes_copied.kernel"] at the same program points. *)

(** {2 Netpoller helpers}

    Readiness checks used by language runtimes' poller threads; these do
    not trap into the kernel (the runtime maintains its own epoll state),
    so they cost nothing and bypass no filter. *)

val fd_readable : t -> int -> bool
(** Data (or EOF) available on a stream socket or regular file fd. *)

val listener_pending : t -> int -> bool
(** A listening socket has at least one connection waiting. *)

(** {2 Introspection for tests and benchmarks} *)

val syscall_count : t -> int
val count_for : t -> Sysno.t -> int

val origin_kill_count : t -> int
(** Syscalls killed by origin verification (non-gate trap sites). *)

val mm_denied_count : t -> int
(** Address-space-shaping syscalls denied to untrusted environments. *)

val trace : t -> (Sysno.t * int) list
(** Per-syscall counts, sorted by syscall number. *)

val reset_stats : t -> unit
