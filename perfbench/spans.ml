(* The benchmark's own host-time spans, recorded around each call it
   makes into a layer of the program (boot, kick, invert, ...). Spans
   are kept in memory: per-name totals always, and the first
   [capacity] spans in full (name, start, end, parent) for the trace
   file written when the run ends. Disabled, [span] is a plain call. *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let capacity = 20_000
let enabled = ref false

(* Host time is the process's CPU time: what the simulator costs,
   without the time the host spent running other processes. *)
let now = Sys.time

let epoch = ref (now ())
let next_id = ref 0
let kept : span list ref = ref []
let nkept = ref 0
let dropped = ref 0
let totals : (string, float ref) Hashtbl.t = Hashtbl.create 16
let stack : int list ref = ref []

let clear () =
  epoch := now ();
  next_id := 0;
  kept := [];
  nkept := 0;
  dropped := 0;
  Hashtbl.reset totals;
  stack := []

let close id name start =
  let stop = now () in
  (match Hashtbl.find_opt totals name with
  | Some t -> t := !t +. (stop -. start)
  | None -> Hashtbl.replace totals name (ref (stop -. start)));
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  if !nkept < capacity then begin
    kept := { id; parent; name; start = start -. !epoch; stop = stop -. !epoch } :: !kept;
    incr nkept
  end
  else incr dropped

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let start = now () in
    stack := id :: !stack;
    let finish () =
      stack := List.tl !stack;
      close id name start
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Host seconds spent inside spans of each name, nested spans
   included. *)
let summary () = Hashtbl.fold (fun name t acc -> (name, !t) :: acc) totals []

(* Chrome trace_event JSON: one complete ("X") event per kept span,
   microsecond timestamps, the parent id in [args]. *)
let write_trace path =
  let module Json = Encl_obs.Export.Json in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("ts", Json.Float (s.start *. 1e6));
        ("dur", Json.Float ((s.stop -. s.start) *. 1e6));
        ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]);
      ]
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.List (List.rev_map event !kept));
        ("dropped_spans", Json.Int !dropped);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')
