(** Int-keyed hash table with an identity hash. Lookups never reach
    [caml_hash] or polymorphic compare, which keeps them cheap on the
    MMU's per-access path ({!Tlb}, {!Pagetable}) and in the per-page
    maps of the kernel's memory manager and LitterBox's section registry. *)

include Hashtbl.S with type key = int
