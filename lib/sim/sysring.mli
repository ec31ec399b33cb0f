(** Global switch for the kernel's batched syscall ring: callers enqueue
    syscall descriptors without a crossing, and one trap (one VM EXIT
    under LitterBox's VT-x backend) drains the batch. Enforcement
    outcomes are identical with the flag on or off — only the number of
    privilege crossings changes.

    The initial value comes from the [ENCL_SYSRING] environment
    variable: unset or anything but ["0"], ["false"], ["off"] means
    enabled. *)

val enabled : unit -> bool
val set : bool -> unit

val with_flag : bool -> (unit -> 'a) -> 'a
(** Run [f] with the flag forced to [b], restoring the previous value on
    exit (tests use this to run differential comparisons). *)
