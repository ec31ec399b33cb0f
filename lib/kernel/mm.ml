type t = {
  phys : Phys.t;
  mutable pts : Pagetable.t list;
  mutable next : int;
  frames : int Itbl.t;  (** vpn -> ppn, canonical ownership *)
}

let create ~phys ~base =
  if not (Encl_util.Bitops.is_aligned base Phys.page_size) then
    invalid_arg "Mm.create: base not page aligned";
  { phys; pts = []; next = base; frames = Itbl.create 1024 }

let phys t = t.phys
let add_pt t pt = t.pts <- t.pts @ [ pt ]
let pts t = t.pts

let alloc_range t ~len =
  let len = max len Phys.page_size in
  let addr = t.next in
  t.next <- addr + Encl_util.Bitops.align_up len Phys.page_size;
  addr

let page_span ~addr ~len =
  let first = addr / Phys.page_size in
  let last = (addr + max len 1 - 1) / Phys.page_size in
  (first, last)

let check_aligned name addr =
  if not (Encl_util.Bitops.is_aligned addr Phys.page_size) then
    invalid_arg (name ^ ": address not page aligned")

let map_at t ~addr ~len ~perms =
  check_aligned "Mm.map_at" addr;
  let first, last = page_span ~addr ~len in
  for vpn = first to last do
    if Itbl.mem t.frames vpn then
      invalid_arg (Printf.sprintf "Mm.map_at: vpn %d already mapped" vpn);
    let ppn = Phys.alloc_page t.phys in
    Itbl.replace t.frames vpn ppn;
    List.iter (fun pt -> Pagetable.map pt ~vpn (Pte.make ~ppn ~perms)) t.pts
  done

let map t ~len ~perms =
  let addr = alloc_range t ~len in
  map_at t ~addr ~len ~perms;
  addr

let unmap t ~addr ~len =
  check_aligned "Mm.unmap" addr;
  let first, last = page_span ~addr ~len in
  for vpn = first to last do
    match Itbl.find_opt t.frames vpn with
    | None -> invalid_arg (Printf.sprintf "Mm.unmap: vpn %d not mapped" vpn)
    | Some ppn ->
        List.iter (fun pt -> Pagetable.unmap pt ~vpn) t.pts;
        Itbl.remove t.frames vpn;
        Phys.free_page t.phys ppn
  done

let iter_range f ~addr ~len =
  let first, last = page_span ~addr ~len in
  for vpn = first to last do
    f vpn
  done

let protect t ?pt ~addr ~len perms =
  let tables = match pt with Some pt -> [ pt ] | None -> t.pts in
  iter_range ~addr ~len (fun vpn ->
      List.iter (fun table -> Pagetable.protect table ~vpn perms) tables)

let set_pkey t ~addr ~len key =
  iter_range ~addr ~len (fun vpn ->
      List.iter (fun table -> Pagetable.set_pkey table ~vpn key) t.pts)

let set_present (_ : t) ~pt ~addr ~len present =
  iter_range ~addr ~len (fun vpn -> Pagetable.set_present pt ~vpn present)

let is_mapped t ~addr = Itbl.mem t.frames (addr / Phys.page_size)
