(* A translation's key packs the interned space id into bits 51..61
   above the vpn. Every vpn of a 63-bit address lies in [-2^50, 2^50),
   whose bits 50..62 all copy the sign, so the packing is injective for
   ids below 2^11. *)
let max_spaces = 1 lsl 11

type t = {
  capacity : int;
  entries : unit Itbl.t;
  fifo : int Queue.t;
  mutable spaces : string list;  (** interned since the last flush; id = index *)
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let create ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  {
    capacity;
    entries = Itbl.create 2048;
    fifo = Queue.create ();
    spaces = [];
    hits = 0;
    misses = 0;
    flushes = 0;
  }

(* Callers pass one name string per page table, and [String.equal]
   answers physically equal strings without reading them, so the
   current space is found in one step; a new one costs a scan of the
   few names seen since the last flush. *)
let rec space_id t space i = function
  | s :: rest -> if String.equal s space then i else space_id t space (i + 1) rest
  | [] ->
      if i >= max_spaces then
        invalid_arg "Tlb.access: too many address spaces between flushes";
      t.spaces <- t.spaces @ [ space ];
      i

let access t ~space ~vpn =
  let key = vpn lxor (space_id t space 0 t.spaces lsl 51) in
  if Itbl.mem t.entries key then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    if Queue.length t.fifo >= t.capacity then
      Itbl.remove t.entries (Queue.pop t.fifo);
    Itbl.replace t.entries key ();
    Queue.push key t.fifo;
    false
  end

(* Cost proportional to the resident entries: each is removed from its
   bucket, and the bucket array is never swept. *)
let flush t =
  Queue.iter (Itbl.remove t.entries) t.fifo;
  Queue.clear t.fifo;
  t.spaces <- [];
  t.flushes <- t.flushes + 1

let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.flushes <- 0

let occupancy t = Queue.length t.fifo
