(* The syscall-ring switch. Gates the kernel's io_uring-style batched
   submission path (Kernel.ring_submit/ring_drain, used by the golike
   runtime's batched syscall helpers) for every program: callers
   enqueue syscall descriptors without a crossing and one trap — or,
   under LitterBox's VT-x backend, one VM EXIT — drains the batch.
   Enforcement outcomes must be bit-identical either way; only the
   number of privilege crossings changes. Initialized from ENCL_SYSRING
   (default on; "0", "false" or "off" disable), mutable so tests and
   tools can run the same workload under both settings in one process. *)

let flag =
  ref
    (match Sys.getenv_opt "ENCL_SYSRING" with
    | Some ("0" | "false" | "off") -> false
    | Some _ | None -> true)

let enabled () = !flag
let set b = flag := b

let with_flag b f =
  let saved = !flag in
  flag := b;
  Fun.protect ~finally:(fun () -> flag := saved) f
