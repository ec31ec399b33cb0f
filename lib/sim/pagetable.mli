(** A per-address-space page table: virtual page number -> {!Pte.t}.

    The simulation keeps one page table per LB_VTX execution environment
    and a single shared page table for LB_MPK (whose environments differ
    only in the PKRU register value). Entries live in an int-keyed
    table with an identity hash, so {!walk}, {!map}, {!unmap} and
    {!protect} never call the polymorphic hash or compare. The page
    table's {!name} is its address-space identity for {!Tlb}. *)

type t

val create : name:string -> t
val name : t -> string

val map : t -> vpn:int -> Pte.t -> unit
(** Install an entry. Raises [Invalid_argument] if [vpn] is mapped. *)

val unmap : t -> vpn:int -> unit
(** Remove an entry entirely. Raises [Invalid_argument] if absent. *)

val walk : t -> vpn:int -> Pte.t option
(** Lookup; [None] when the vpn has no entry. A non-present entry is
    still returned (callers must check {!Pte.t.present}). *)

val protect : t -> vpn:int -> Pte.perms -> unit
(** Change access rights of a mapped page. *)

val set_present : t -> vpn:int -> bool -> unit
(** Toggle the present bit (the LB_VTX transfer fast path). *)

val set_pkey : t -> vpn:int -> int -> unit
(** Retag a page with an MPK key (0..15). *)

val mapped_count : t -> int
val iter : t -> (int -> Pte.t -> unit) -> unit
(** Visit every entry, in no specified order. *)

val clone : t -> name:string -> t
(** Deep copy (fresh [Pte.t] records, shared frames): used by LB_VTX to
    derive per-enclosure page tables from the trusted one. *)

val pp : Format.formatter -> t -> unit
