(** A process-global on/off switch read once from an environment
    variable: unset or anything but ["0"], ["false"], ["off"] means
    enabled. Mutable, so tests and tools can run the same workload under
    both settings in one process. {!Fastpath}, {!Sysring} and
    {!Zerocopy} are instances. *)

module Make (_ : sig
  val var : string  (** the environment variable, e.g. ["ENCL_FASTPATH"] *)
end) : sig
  val enabled : unit -> bool
  val set : bool -> unit

  val with_flag : bool -> (unit -> 'a) -> 'a
  (** Run [f] with the flag forced to [b], restoring the previous value
      on exit, also when [f] raises. *)
end
