(** A translation-lookaside-buffer model (statistics only).

    The TLB caches virtual-page translations per address space. LB_MPK
    switches keep the same page table, so the TLB stays warm across
    enclosure switches; LB_VTX moves CR3, which (without PCID) flushes
    it — one of the structural reasons MPK switching is cheap. The model
    tracks hits, misses, and flushes; it charges no simulated time (TLB
    effects are already folded into the calibrated switch costs), but the
    counters let benchmarks report locality.

    An address space is identified by its page table's {e name}. Inside
    each TLB the name is interned to a small int, and a translation is
    keyed by one int packing that id with the vpn, so an access neither
    allocates nor hashes a string. Ids are recycled on every flush. *)

type t

val create : ?capacity:int -> unit -> t
(** FIFO-evicting set of translations; default capacity 1024. *)

val access : t -> space:string -> vpn:int -> bool
(** Record an access; [true] on hit. [space] names the address space
    (page-table identity): equal names are the same space. Any vpn of a
    63-bit address ([-2^50 <= vpn < 2^50]) is exact. Raises
    [Invalid_argument] if more than 2048 distinct spaces are accessed
    between two flushes. *)

val flush : t -> unit
(** Drop every cached translation (a CR3 move without PCID). Costs time
    in proportion to {!occupancy}, not to the table's size. *)

val hits : t -> int
val misses : t -> int
val flushes : t -> int
val reset_stats : t -> unit
val occupancy : t -> int
