(* The syscall-ring switch. Gates the kernel's io_uring-style batched
   submission path (Kernel.ring_submit/ring_drain, used by the golike
   runtime's batched syscall helpers) for every program: callers
   enqueue syscall descriptors without a crossing and one trap — or,
   under LitterBox's VT-x backend, one VM EXIT — drains the batch.
   Enforcement outcomes must be bit-identical either way; only the
   number of privilege crossings changes. Initialized from ENCL_SYSRING
   (default on; "0", "false" or "off" disable), mutable so tests and
   tools can run the same workload under both settings in one process. *)

include Flag.Make (struct let var = "ENCL_SYSRING" end)
