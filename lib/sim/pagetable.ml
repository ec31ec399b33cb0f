type t = { name : string; entries : Pte.t Itbl.t }

let create ~name = { name; entries = Itbl.create 1024 }
let name t = t.name

let map t ~vpn pte =
  if Itbl.mem t.entries vpn then
    invalid_arg (Printf.sprintf "Pagetable(%s): vpn %d already mapped" t.name vpn);
  Itbl.replace t.entries vpn pte

let unmap t ~vpn =
  if not (Itbl.mem t.entries vpn) then
    invalid_arg (Printf.sprintf "Pagetable(%s): vpn %d not mapped" t.name vpn);
  Itbl.remove t.entries vpn

let walk t ~vpn = Itbl.find_opt t.entries vpn

let get t vpn =
  match walk t ~vpn with
  | Some pte -> pte
  | None ->
      invalid_arg (Printf.sprintf "Pagetable(%s): vpn %d not mapped" t.name vpn)

let protect t ~vpn perms = (get t vpn).Pte.perms <- perms
let set_present t ~vpn present = (get t vpn).Pte.present <- present

let set_pkey t ~vpn pkey =
  if pkey < 0 || pkey > 15 then invalid_arg "Pagetable.set_pkey: key out of range";
  (get t vpn).Pte.pkey <- pkey

let mapped_count t = Itbl.length t.entries
let iter t f = Itbl.iter f t.entries

let clone t ~name =
  let fresh = create ~name in
  Itbl.iter
    (fun vpn (pte : Pte.t) ->
      Itbl.replace fresh.entries vpn
        { Pte.ppn = pte.ppn; present = pte.present; perms = pte.perms; pkey = pte.pkey })
    t.entries;
  fresh

let pp ppf t =
  let entries =
    Itbl.fold (fun vpn pte acc -> (vpn, pte) :: acc) t.entries []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Format.fprintf ppf "@[<v>pagetable %s (%d entries)" t.name (List.length entries);
  List.iter (fun (vpn, pte) -> Format.fprintf ppf "@ %#x -> %a" vpn Pte.pp pte) entries;
  Format.fprintf ppf "@]"
