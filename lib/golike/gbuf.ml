module Machine = Encl_litterbox.Machine

type t = { addr : int; len : int }

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Gbuf.sub";
  { addr = t.addr + pos; len }

let check t i = if i < 0 || i >= t.len then invalid_arg "Gbuf: index out of bounds"

let get m t i =
  check t i;
  Cpu.read8 m.Machine.cpu (t.addr + i)

let set m t i v =
  check t i;
  Cpu.write8 m.Machine.cpu (t.addr + i) v

let fill m t v =
  Cpu.write_bytes m.Machine.cpu ~addr:t.addr (Bytes.make t.len (Char.chr (v land 0xff)))

let read_bytes m t = Cpu.read_bytes m.Machine.cpu ~addr:t.addr ~len:t.len
let read_string m t = Bytes.to_string (read_bytes m t)

let write_bytes m t b =
  if Bytes.length b > t.len then invalid_arg "Gbuf.write_bytes: too large";
  Cpu.write_bytes m.Machine.cpu ~addr:t.addr b

let write_string m t s = write_bytes m t (Bytes.of_string s)

let blit m ~src ~dst =
  let len = min src.len dst.len in
  Cpu.check m.Machine.cpu Cpu.Read ~addr:src.addr ~len;
  Machine.note_copied m len;
  Cpu.copy m.Machine.cpu ~src:src.addr ~dst:dst.addr ~len

let get64 m t i =
  check t (i + 7);
  Cpu.read64 m.Machine.cpu (t.addr + i)

let set64 m t i v =
  check t (i + 7);
  Cpu.write64 m.Machine.cpu (t.addr + i) v
