let page_size = 4096

(* A frame is free, allocated but never written (it reads as zeros and
   owns no bytes), or backed by its own page of bytes. *)
type frame = Free | Zero | Data of Bytes.t

type t = {
  mutable frames : frame array;
  mutable next : int;
  mutable free : int list;
  mutable live : int;
}

let create () = { frames = Array.make 64 Free; next = 0; free = []; live = 0 }

let grow t =
  let frames = Array.make (2 * Array.length t.frames) Free in
  Array.blit t.frames 0 frames 0 (Array.length t.frames);
  t.frames <- frames

let alloc_page t =
  t.live <- t.live + 1;
  match t.free with
  | ppn :: rest ->
      t.free <- rest;
      t.frames.(ppn) <- Zero;
      ppn
  | [] ->
      if t.next >= Array.length t.frames then grow t;
      let ppn = t.next in
      t.next <- ppn + 1;
      t.frames.(ppn) <- Zero;
      ppn

let invalid t ppn ~off ~len =
  invalid_arg
    (if ppn < 0 || ppn >= t.next then Printf.sprintf "Phys: bad ppn %d" ppn
     else if off < 0 || len < 0 || off > page_size - len then
       Printf.sprintf "Phys: bad range %d+%d" off len
     else Printf.sprintf "Phys: ppn %d is free" ppn)

(* The live frame [ppn]; [off, off + len) must lie inside it. Inlined:
   every guest access goes through it. *)
let[@inline] frame t ppn ~off ~len =
  if ppn < 0 || ppn >= t.next || off < 0 || len < 0 || off > page_size - len then
    invalid t ppn ~off ~len
  else match t.frames.(ppn) with Free -> invalid t ppn ~off ~len | f -> f

let materialise t ppn =
  let b = Bytes.make page_size '\000' in
  t.frames.(ppn) <- Data b;
  b

(* The bytes of a live frame, materialising a [Zero] one. *)
let[@inline] data t ppn ~off ~len =
  match frame t ppn ~off ~len with Data b -> b | Zero | Free -> materialise t ppn

let free_page t ppn =
  ignore (frame t ppn ~off:0 ~len:0);
  t.frames.(ppn) <- Free;
  t.free <- ppn :: t.free;
  t.live <- t.live - 1

let page_count t = t.live

let read8 t ~ppn ~off =
  match frame t ppn ~off ~len:1 with
  | Data b -> Char.code (Bytes.unsafe_get b off)
  | Zero | Free -> 0

let write8 t ~ppn ~off v =
  Bytes.unsafe_set (data t ppn ~off ~len:1) off (Char.unsafe_chr (v land 0xff))

let read64 t ~ppn ~off =
  match frame t ppn ~off ~len:8 with
  | Data b -> Bytes.get_int64_le b off
  | Zero | Free -> 0L

let write64 t ~ppn ~off v = Bytes.set_int64_le (data t ppn ~off ~len:8) off v

let blit_to_bytes t ~ppn ~off dst dst_off len =
  match frame t ppn ~off ~len with
  | Data b -> Bytes.blit b off dst dst_off len
  | Zero | Free -> Bytes.fill dst dst_off len '\000'

let blit_of_bytes t ~ppn ~off src src_off len =
  match frame t ppn ~off ~len with
  | Zero when len = page_size ->
      (* A whole-page write adopts a copy of the source; no zeroing first. *)
      t.frames.(ppn) <- Data (Bytes.sub src src_off len)
  | _ -> Bytes.blit src src_off (data t ppn ~off ~len) off len

let blit t ~src ~src_off ~dst ~dst_off len =
  match (frame t src ~off:src_off ~len, frame t dst ~off:dst_off ~len) with
  | (Zero | Free), (Zero | Free) -> ()
  | (Zero | Free), Data b -> Bytes.fill b dst_off len '\000'
  | Data s, _ -> blit_of_bytes t ~ppn:dst ~off:dst_off s src_off len
