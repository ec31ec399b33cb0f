(** Simulated physical memory: a growable store of 4 KiB page frames.

    Frames are identified by physical page numbers (PPNs). The store backs
    every virtual address space in the simulation; page tables map virtual
    page numbers to PPNs allocated here.

    Frames are demand-zero. A frame is free, zero, or backed by bytes. A
    freshly allocated frame is zero: it reads as zeros and costs the host
    no page of memory. Its first write gives it its own 4 KiB of bytes; a
    write that covers the whole page adopts a copy of the source instead
    of zeroing first. Copying a zero frame into a zero frame keeps it
    zero. Every accessor raises [Invalid_argument] on a free or unknown
    PPN and on a range outside the frame. *)

val page_size : int
(** 4096 bytes. *)

type t

val create : unit -> t

val alloc_page : t -> int
(** Allocate a zero frame; returns its PPN. A reused PPN reads as zeros
    again. *)

val free_page : t -> int -> unit
(** Return a frame to the free list. Double frees raise
    [Invalid_argument]. *)

val page_count : t -> int
(** Number of frames currently allocated (live, not freed). *)

val read8 : t -> ppn:int -> off:int -> int
val write8 : t -> ppn:int -> off:int -> int -> unit

val read64 : t -> ppn:int -> off:int -> int64
(** Little-endian; [off] must leave 8 bytes within the frame. *)

val write64 : t -> ppn:int -> off:int -> int64 -> unit

val blit_to_bytes : t -> ppn:int -> off:int -> Bytes.t -> int -> int -> unit
(** [blit_to_bytes t ~ppn ~off dst dst_off len] copies out of one frame;
    the range must not cross the frame boundary. *)

val blit_of_bytes : t -> ppn:int -> off:int -> Bytes.t -> int -> int -> unit
(** Copy bytes into one frame; same boundary rule. *)

val blit : t -> src:int -> src_off:int -> dst:int -> dst_off:int -> int -> unit
(** [blit t ~src ~src_off ~dst ~dst_off len] copies [len] bytes from
    frame [src] to frame [dst] without an intermediate buffer; neither
    range may cross its frame's boundary. Overlapping ranges within one
    frame copy as [memmove] does. *)
