(* The global zero-copy switch. One flag gates every data-plane
   optimization that is semantics-preserving by construction (rx-ring
   view consumption without a bounce copy, the sendfile fast path,
   pylike localcopy elision): enforcement outcomes must be bit-identical
   either way, only the simulated cost and the bytes_copied ledger
   change. Initialized from ENCL_ZEROCOPY (default on; "0", "false" or
   "off" disable), mutable so tests and tools can run the same workload
   under both settings in one process. *)

include Flag.Make (struct let var = "ENCL_ZEROCOPY" end)
