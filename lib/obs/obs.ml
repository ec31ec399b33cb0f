type t = {
  now : unit -> int;
  ring : Event.t Ring.t;
  metrics : Metrics.t;
  spans : Span.t;
  attrib : Attrib.t;
  witness : Witness.t;
  mutable enabled : bool;
  mutable backend : string;
  trusted : Metrics.scope;
  mutable cur : Metrics.scope;  (** the current context's scope *)
}

let default_capacity = 65_536
let default_enabled = ref false

let with_tracing ?(obs = true) ?(witness = true) f =
  let saved_obs = !default_enabled in
  let saved_witness = !Witness.default_enabled in
  default_enabled := obs;
  Witness.default_enabled := witness;
  Fun.protect
    ~finally:(fun () ->
      default_enabled := saved_obs;
      Witness.default_enabled := saved_witness)
    f

let create ?(capacity = default_capacity) ?enabled ~now () =
  let metrics = Metrics.create () in
  let trusted = Metrics.scope metrics "trusted" in
  {
    now;
    ring = Ring.create ~capacity;
    metrics;
    spans = Span.create ~capacity ~now ();
    attrib = Attrib.create ~now ();
    witness = Witness.create ();
    enabled = (match enabled with Some e -> e | None -> !default_enabled);
    backend = "baseline";
    trusted;
    cur = trusted;
  }

let enabled t = t.enabled
let enable t = t.enabled <- true
let disable t = t.enabled <- false
let set_backend t b = t.backend <- b
let backend t = t.backend

type scope = Metrics.scope

let scope t name = Metrics.scope t.metrics name
let trusted t = t.trusted
let set_context t s = t.cur <- s
let context t = Metrics.context t.cur

let scope_of t = function
  | Some s -> s
  | None -> Metrics.scope_name t.cur

let emit t ?(dur = 0) kind =
  if t.enabled then
    Ring.push t.ring
      {
        Event.ts = t.now () - dur;
        dur;
        backend = t.backend;
        enclosure = Metrics.context t.cur;
        kind;
      }

(* Counters are always on: one array increment in the current scope. *)
let[@inline] incr t c = Metrics.incr t.cur c
let[@inline] add t c n = Metrics.add t.cur c n
let incr_in = Metrics.incr
let total t c = Metrics.total t.metrics c

let observe t ?scope name v =
  if t.enabled then
    Metrics.observe
      (match scope with Some s -> Metrics.scope t.metrics s | None -> t.cur)
      name v

(* Spans: callers hold the returned id and must exit it on every path.
   Disabled sink => [-1], which [span_exit] ignores, so instrumented
   sites stay branch-only when observability is off. *)

let span_enter t ?lane ~name ~category () =
  if t.enabled then Span.enter t.spans ~lane:(scope_of t lane) ~name ~category
  else -1

let span_exit t id = if id >= 0 && t.enabled then Span.exit t.spans id

let span_mark t ?lane ~name ~category () =
  if t.enabled then Span.mark t.spans ~lane:(scope_of t lane) ~name ~category

(* The clock's observer: attribute this tick to the innermost open span,
   or to the current scope's "user" cell when no span is open. Exact by
   construction — one call per [Clock.consume], covering all of it. *)
let clock_tick ?(core = 0) t ns =
  if t.enabled && ns > 0 then
    match Span.top t.spans with
    | Some (sp, sig_) ->
        Attrib.charge ~core t.attrib ~scope:sp.Span.lane
          ~category:(Span.category_name sp.Span.category)
          ~stack:sig_ ns
    | None ->
        Attrib.charge ~core t.attrib ~scope:(Metrics.scope_name t.cur)
          ~category:"user" ~stack:(Metrics.user_sig t.cur) ns

let witness t = t.witness

let events t = Ring.to_list t.ring
let metrics t = t.metrics
let spans t = t.spans
let attribution t = t.attrib
let total_events t = Ring.pushed t.ring
let dropped_events t = Ring.dropped t.ring
let capacity t = Ring.capacity t.ring

let reset t =
  Ring.clear t.ring;
  Metrics.clear_hists t.metrics;
  Span.clear t.spans;
  Attrib.clear t.attrib;
  Witness.reset t.witness
