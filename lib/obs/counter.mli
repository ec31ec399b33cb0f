(** The closed set of event counters the simulator keeps.

    Every counter lives in exactly one place: the per-scope registry
    ({!Metrics}). Layers bump it at the program point where the event
    happens, whether or not tracing is on, and their public [*_count]
    accessors read it back. {!name} is the key the counter carries in
    [metrics.json] and the text summary. Subsets: [Switch_elided] of
    [Switch], [Transfer_coalesced] of [Transfer], [Origin_kill] of
    [Gate_violation] (which also counts CPU gate faults and denied
    mm-shaping calls). *)

type t =
  | Switch | Switch_elided | Transfer | Transfer_coalesced | Fault
  | Quarantine | Tainted_verified | Tainted_rejected | Sfi_masked_access
  | Gate_violation | Origin_kill | Inject | Attack_contained | Attack_escaped
  | Bytes_copied_app | Bytes_copied_kernel | Ring_submitted | Ring_drained
  | Ring_batches | Ring_ipi | Rx_granted | Rx_consumed | Rx_reclaimed
  | Syscall_allowed | Syscall_denied | Syscall_io | Syscall_file
  | Syscall_net | Syscall_mem | Syscall_proc | Syscall_time | Syscall_sync
  | Syscall_rand | Seccomp_cache_hit | Seccomp_cache_miss
  | Sched_affinity_hit | Sched_steal | Fiber_kill | Alloc_span | Gc | Retry
  | Copy_elided | Cow_materialized | Refcount_excursion | Gc_excursion

external index : t -> int = "%identity"
(** Constant constructors are represented by their declaration index,
    so this is free; it indexes a scope's counter array. *)

val count : int
(** Number of counters; [index c < count]. *)

val name : t -> string
(** The export key, e.g. ["switch"], ["ring.rx_granted"],
    ["syscall.net"]. *)

val by_name : t list
(** Every counter, sorted by {!name}: the export order. *)
