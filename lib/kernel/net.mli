(** A loopback network and a registry of simulated remote hosts.

    The guest program reaches this module only through socket system calls.
    Benchmarks and tests act as {e external} peers: either clients
    connecting to a guest listener ({!client_connect}) or remote servers
    the guest connects out to ({!register_remote}). Remote hosts record
    every byte they receive, which is how the §6.5 attack experiments
    observe (or rule out) exfiltration. *)

type t

val create : unit -> t

val set_injector : t -> Encl_fault.Fault.t -> unit
(** Attach a chaos injector and register the network's hook points:
    [net.conn_drop] (both endpoints closed mid-send), [net.partial_read]
    (recv returns half of what it could, at least one byte but never more
    than asked) and [net.partial_write] (send delivers only a prefix and
    reports the short count). Consultations carry the environment label
    ["net"]. *)

(** {2 Addresses} *)

val loopback : int
(** 127.0.0.1 as an integer. *)

val addr_of_string : string -> int
(** Dotted quad to integer; raises [Invalid_argument] on bad input. *)

val string_of_addr : int -> string

(** {2 Stream endpoints} *)

type ep
(** One end of an established byte stream. *)

type recv_result = Data of Bytes.t | Would_block | Eof

val pipe_pair : t -> ep * ep
(** An anonymous connected stream pair (used by pipe(2)). *)

val readable : t -> ep -> bool
(** Data buffered, or the stream is at EOF (non-consuming peek). *)

val send : t -> ep -> Bytes.t -> (int, string) result
(** [send t ep data] queues [data] at the peer and returns how many bytes
    it took. The queue adopts [data] without copying it, so the caller
    must not write to [data] afterwards; a buffer that is never written
    may be sent more than once. Under [net.partial_write] only a copied
    prefix is queued. *)

val recv : t -> ep -> int -> recv_result
(** [recv t ep n] takes at most [n] bytes (none when [n <= 0]) from the
    front of [ep]'s queue, or reports [Would_block] / [Eof] when it is
    empty. The returned buffer is a fresh copy that belongs to the
    caller. *)

val close_ep : t -> ep -> unit
val ep_closed : ep -> bool

(** {2 Guest-side operations (used by syscall handlers)} *)

type listener

val listen : t -> port:int -> (listener, string) result
val accept : t -> listener -> ep option
(** [None] when no pending connection (non-blocking). *)

val pending : t -> listener -> int

val connect : t -> ip:int -> port:int -> (ep, string) result
(** Guest out-bound connection: to a registered remote host, or to a guest
    listener when [ip] is {!loopback}. *)

(** {2 External-world operations (benchmarks / tests)} *)

val client_connect : t -> port:int -> (ep, string) result
(** Connect to a guest listener from outside the simulated machine. *)

type remote

val register_remote :
  t -> ip:int -> port:int -> ?respond:(Bytes.t -> Bytes.t list) -> string ->
  remote
(** Register a remote server. [respond chunk] produces reply chunks pushed
    back to the guest; default responds nothing. The guest's queue adopts
    each reply as {!send} adopts its payload, so [respond] must return
    buffers it does not keep or write to later. *)

val remote_received : remote -> Bytes.t
(** Every byte this host has received so far (exfiltration detector). *)

val remote_name : remote -> string
val remote_conn_count : remote -> int
