(** The simulated machine: one object wiring hardware and OS together.

    Creates, in order: physical memory, the simulated clock, the trusted
    page table, the CPU (starting in the trusted environment), the
    address-space manager (heap above the linker's regions), the
    filesystem, the network, and the kernel. *)

type t = {
  phys : Phys.t;
  clock : Clock.t;
  costs : Costs.t;
  cores : int;
      (** Simulated core count. The machine stays a single sequential
          simulation — one clock, one kernel — but the scheduler shards
          its run queue per core, each core charges its own clock lane,
          and per-core hardware state (TLB, seccomp verdict cache,
          sysring) is selected by the current lane. *)
  trusted_pt : Pagetable.t;
  trusted_env : Cpu.env;
  cpu : Cpu.t;
  mm : Encl_kernel.Mm.t;
  vfs : Encl_kernel.Vfs.t;
  net : Encl_kernel.Net.t;
  kernel : Encl_kernel.Kernel.t;
  obs : Encl_obs.Obs.t;
      (** Observability sink reading the simulated clock; disabled by
          default ({!Encl_obs.Obs.default_enabled}). *)
  inject : Encl_fault.Fault.t;
      (** The machine-wide chaos injector. CPU, kernel and network hook
          points are registered at creation; inert until a plan is armed.
          Firings are counted in [obs] (counter ["inject"]) and, when
          the sink is enabled, recorded as [Inject] events. *)
  mutable bytes_copied : int;
      (** Guest-side bytes_copied ledger: buffer-to-buffer copies guest
          code performs (response assembly, pylike localcopy). The
          kernel keeps its own half for user-memory passes. Update via
          {!note_copied}, which also counts it in the registry as
          ["bytes_copied.app"]. The one counter that is also a record
          field: the benchmark harness reads it as one. *)
}

val create : ?costs:Costs.t -> ?cores:int -> unit -> t
(** [cores] (default 1) must be >= 1. With [cores = 1] the machine is
    byte-for-byte the old single-core one. *)

val note_copied : t -> int -> unit
(** Charge [n] bytes to the guest-side copy ledger (the field and the
    ["bytes_copied.app"] counter). Free of simulated time (the copy itself
    pays through its CPU accesses). *)

val with_trusted : t -> (unit -> 'a) -> 'a
(** Run [f] with the CPU temporarily in the trusted environment (used by
    runtimes for GC and by LitterBox internals). *)
