(* The global fast-path switch. One flag gates every optimization that
   is semantics-preserving by construction (switch elision, the seccomp
   verdict cache, transfer coalescing, enclosure-affinity scheduling):
   enforcement outcomes must be bit-identical either way, only the
   simulated cost changes. Initialized from ENCL_FASTPATH (default on;
   "0", "false" or "off" disable), mutable so tests and tools can run
   the same workload under both settings in one process. *)

include Flag.Make (struct let var = "ENCL_FASTPATH" end)
