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

(* Declaration order: the i-th element has [index] i (checked below). *)
let all =
  [ Switch; Switch_elided; Transfer; Transfer_coalesced; Fault;
    Quarantine; Tainted_verified; Tainted_rejected; Sfi_masked_access;
    Gate_violation; Origin_kill; Inject; Attack_contained; Attack_escaped;
    Bytes_copied_app; Bytes_copied_kernel; Ring_submitted; Ring_drained;
    Ring_batches; Ring_ipi; Rx_granted; Rx_consumed; Rx_reclaimed;
    Syscall_allowed; Syscall_denied; Syscall_io; Syscall_file;
    Syscall_net; Syscall_mem; Syscall_proc; Syscall_time; Syscall_sync;
    Syscall_rand; Seccomp_cache_hit; Seccomp_cache_miss;
    Sched_affinity_hit; Sched_steal; Fiber_kill; Alloc_span; Gc; Retry;
    Copy_elided; Cow_materialized; Refcount_excursion; Gc_excursion ]

let count = List.length all
let () = List.iteri (fun i c -> assert (index c = i)) all

let name = function
  | Switch -> "switch"
  | Switch_elided -> "switch_elided"
  | Transfer -> "transfer"
  | Transfer_coalesced -> "transfer_coalesced"
  | Fault -> "fault"
  | Quarantine -> "quarantine"
  | Tainted_verified -> "tainted_verified"
  | Tainted_rejected -> "tainted_rejected"
  | Sfi_masked_access -> "sfi_masked_access"
  | Gate_violation -> "gate_violation"
  | Origin_kill -> "origin_kill"
  | Inject -> "inject"
  | Attack_contained -> "attack_contained"
  | Attack_escaped -> "attack_escaped"
  | Bytes_copied_app -> "bytes_copied.app"
  | Bytes_copied_kernel -> "bytes_copied.kernel"
  | Ring_submitted -> "ring_submitted"
  | Ring_drained -> "ring_drained"
  | Ring_batches -> "ring_batches"
  | Ring_ipi -> "ring_ipi"
  | Rx_granted -> "ring.rx_granted"
  | Rx_consumed -> "ring.rx_consumed"
  | Rx_reclaimed -> "ring.rx_reclaimed"
  | Syscall_allowed -> "syscall.allowed"
  | Syscall_denied -> "syscall.denied"
  | Syscall_io -> "syscall.io"
  | Syscall_file -> "syscall.file"
  | Syscall_net -> "syscall.net"
  | Syscall_mem -> "syscall.mem"
  | Syscall_proc -> "syscall.proc"
  | Syscall_time -> "syscall.time"
  | Syscall_sync -> "syscall.sync"
  | Syscall_rand -> "syscall.rand"
  | Seccomp_cache_hit -> "seccomp.cache_hit"
  | Seccomp_cache_miss -> "seccomp.cache_miss"
  | Sched_affinity_hit -> "sched.affinity_hit"
  | Sched_steal -> "sched.steal"
  | Fiber_kill -> "fiber.kill"
  | Alloc_span -> "alloc_span"
  | Gc -> "gc"
  | Retry -> "retry"
  | Copy_elided -> "copy_elided"
  | Cow_materialized -> "cow_materialized"
  | Refcount_excursion -> "refcount_excursion"
  | Gc_excursion -> "gc_excursion"

let by_name = List.sort (fun a b -> compare (name a) (name b)) all
