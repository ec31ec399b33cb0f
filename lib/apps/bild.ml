module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Machine = Encl_litterbox.Machine

let pkg = "bild"
let dep_count = 15

(* Calibrated workload constants (ns). *)
let ns_per_pixel = 12
let ns_per_tile = 30
let tile_rows = 2

let packages () =
  let deps, root = Deps.tree ~prefix:pkg ~count:dep_count in
  let bild =
    Runtime.package pkg ~imports:[ root ]
      ~functions:
        [ ("invert", 2048); ("blur", 2048); ("grayscale", 1024); ("checksum", 256) ]
      ~constants:[ ("kernel_3x3", 64, None) ]
      ()
  in
  bild :: deps

let enclosure_decl ~name ~policy ~closure =
  { Encl_elf.Objfile.enc_name = name; enc_policy = policy; enc_closure = closure; enc_deps = [ pkg ] }

let charge rt ns = Clock.consume (Runtime.clock rt) Clock.Compute ns

let invert rt ~src ~width ~height =
  Runtime.in_function rt ~pkg ~fn:"invert" @@ fun () ->
  let m = Runtime.machine rt in
  let size = width * height * 4 in
  if src.Gbuf.len < size then invalid_arg "bild.invert: source too small";
  (* Working copy: the source may be shared read-only with us. *)
  let copy = Runtime.alloc rt size in
  Gbuf.blit m ~src ~dst:copy;
  (* Intermediate pass buffer (bild pipelines effects through stages). *)
  let inter = Runtime.alloc rt size in
  let dst = Runtime.alloc rt size in
  let row_bytes = width * 4 in
  let rows_per_tile = tile_rows in
  let tiles = (height + rows_per_tile - 1) / rows_per_tile in
  for tile = 0 to tiles - 1 do
    let row0 = tile * rows_per_tile in
    let nrows = min rows_per_tile (height - row0) in
    let tile_len = nrows * row_bytes in
    (* Per-tile buffers: the parallel workers of the real bild each carry
       a scratch buffer, an alpha mask, and a row-staging buffer. *)
    let scratch = Runtime.alloc rt tile_len in
    let mask = Runtime.alloc rt tile_len in
    let rowbuf = Runtime.alloc rt tile_len in
    ignore mask;
    ignore rowbuf;
    let off = row0 * row_bytes in
    let data = Gbuf.read_bytes m (Gbuf.sub copy ~pos:off ~len:tile_len) in
    (* [255 - b] is [b lxor 0xff]: invert a 64-bit word at a time, then
       the tail bytes. *)
    let words = tile_len / 8 in
    for w = 0 to words - 1 do
      Bytes.set_int64_ne data (8 * w) (Int64.lognot (Bytes.get_int64_ne data (8 * w)))
    done;
    for i = 8 * words to tile_len - 1 do
      Bytes.unsafe_set data i
        (Char.unsafe_chr (255 - Char.code (Bytes.unsafe_get data i)))
    done;
    Gbuf.write_bytes m (Gbuf.sub scratch ~pos:0 ~len:tile_len) data;
    Gbuf.blit m ~src:scratch ~dst:(Gbuf.sub inter ~pos:off ~len:tile_len);
    Gbuf.blit m
      ~src:(Gbuf.sub inter ~pos:off ~len:tile_len)
      ~dst:(Gbuf.sub dst ~pos:off ~len:tile_len);
    charge rt ((nrows * width * ns_per_pixel) + ns_per_tile)
  done;
  dst

(* Shared row-by-row driver for the simpler single-pass effects. *)
let row_effect rt ~fn ~src ~width ~height ~transform =
  Runtime.in_function rt ~pkg ~fn @@ fun () ->
  let m = Runtime.machine rt in
  let size = width * height * 4 in
  if src.Gbuf.len < size then invalid_arg ("bild." ^ fn ^ ": source too small");
  let dst = Runtime.alloc rt size in
  let row_bytes = width * 4 in
  for row = 0 to height - 1 do
    let off = row * row_bytes in
    let data = Gbuf.read_bytes m (Gbuf.sub src ~pos:off ~len:row_bytes) in
    let out = transform data in
    Gbuf.write_bytes m (Gbuf.sub dst ~pos:off ~len:row_bytes) out;
    charge rt (width * ns_per_pixel)
  done;
  dst

(* Both transforms work on the private row buffer [read_bytes] already
   produced — it never aliases guest memory, so mutating it in place is
   safe and the old [Bytes.copy] per row was a second copy of every
   tile for nothing. The simulated copies that remain (the [Gbuf.blit]
   pipeline stages above) all charge the bytes_copied ledger. *)
let grayscale rt ~src ~width ~height =
  row_effect rt ~fn:"grayscale" ~src ~width ~height ~transform:(fun data ->
      let npx = Bytes.length data / 4 in
      for p = 0 to npx - 1 do
        let r = Char.code (Bytes.get data (4 * p)) in
        let g = Char.code (Bytes.get data ((4 * p) + 1)) in
        let b = Char.code (Bytes.get data ((4 * p) + 2)) in
        let y = (r + g + b) / 3 in
        Bytes.set data (4 * p) (Char.chr y);
        Bytes.set data ((4 * p) + 1) (Char.chr y);
        Bytes.set data ((4 * p) + 2) (Char.chr y)
      done;
      data)

let blur rt ~src ~width ~height =
  row_effect rt ~fn:"blur" ~src ~width ~height ~transform:(fun data ->
      let npx = Bytes.length data / 4 in
      (* In place, with a 1-pixel carry: [carry] holds the original of
         pixel p-1, which the in-place write has already destroyed;
         [cur] snapshots pixel p before it is overwritten. *)
      let carry = Bytes.make 4 '\000' in
      let cur = Bytes.make 4 '\000' in
      for p = 0 to npx - 1 do
        Bytes.blit data (4 * p) cur 0 4;
        for c = 0 to 2 do
          let left = Char.code (Bytes.get (if p = 0 then cur else carry) c) in
          let mid = Char.code (Bytes.get cur c) in
          let right =
            if p + 1 > npx - 1 then mid
            else Char.code (Bytes.get data ((4 * (p + 1)) + c))
          in
          Bytes.set data ((4 * p) + c) (Char.chr ((left + mid + right) / 3))
        done;
        Bytes.blit cur 0 carry 0 4
      done;
      data)

let checksum rt buf =
  Runtime.in_function rt ~pkg ~fn:"checksum" @@ fun () ->
  let m = Runtime.machine rt in
  let data = Gbuf.read_bytes m buf in
  let sum = ref 0 in
  Bytes.iter (fun c -> sum := !sum + Char.code c) data;
  charge rt (buf.Gbuf.len / 8);
  !sum
