type scope = {
  name : string;
  context : string option;
  user_sig : string;
  counts : int array;  (** indexed by {!Counter.index} *)
  hists : (string, Hist.t) Hashtbl.t;
  mutable first_use : int;  (** rank in first-use order; -1 = unused *)
  uses : int ref;  (** the registry's next rank, shared by its scopes *)
}

type t = {
  by_name : (string, scope) Hashtbl.t;
  uses : int ref;
}

let new_scope by_name uses name =
  let s =
    {
      name;
      context = (if name = "trusted" then None else Some name);
      user_sig = name ^ ";user";
      counts = Array.make Counter.count 0;
      hists = Hashtbl.create 8;
      first_use = -1;
      uses;
    }
  in
  Hashtbl.replace by_name name s;
  s

let create () =
  { by_name = Hashtbl.create 16; uses = ref 0 }

let scope t name =
  match Hashtbl.find_opt t.by_name name with
  | Some s -> s
  | None -> new_scope t.by_name t.uses name

let scope_name s = s.name
let context s = s.context
let user_sig s = s.user_sig

let mark_used (s : scope) =
  s.first_use <- !(s.uses);
  incr s.uses

let[@inline] add s c n =
  if s.first_use < 0 then mark_used s;
  let i = Counter.index c in
  s.counts.(i) <- s.counts.(i) + n

let[@inline] incr s c = add s c 1

let observe s name v =
  if s.first_use < 0 then mark_used s;
  let h =
    match Hashtbl.find_opt s.hists name with
    | Some h -> h
    | None ->
        let h = Hist.create () in
        Hashtbl.replace s.hists name h;
        h
  in
  Hist.record h v

let scopes t =
  Hashtbl.fold (fun _ s acc -> if s.first_use < 0 then acc else s :: acc)
    t.by_name []
  |> List.sort (fun a b -> compare a.first_use b.first_use)
  |> List.map (fun s -> s.name)

let counter t ~scope c =
  match Hashtbl.find_opt t.by_name scope with
  | Some s -> s.counts.(Counter.index c)
  | None -> 0

let total t c =
  Hashtbl.fold (fun _ s acc -> acc + s.counts.(Counter.index c)) t.by_name 0

let counters t ~scope =
  List.filter_map
    (fun c ->
      let v = counter t ~scope c in
      if v = 0 then None else Some (Counter.name c, v))
    Counter.by_name

let hists t ~scope =
  match Hashtbl.find_opt t.by_name scope with
  | None -> []
  | Some s ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.hists []
      |> List.sort (fun (a, _) (b, _) -> compare a b)

let counter_names t = List.filter (fun c -> total t c <> 0) Counter.by_name

let clear_hists t = Hashtbl.iter (fun _ s -> Hashtbl.reset s.hists) t.by_name
