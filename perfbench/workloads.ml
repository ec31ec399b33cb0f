(* The four workloads, each driven from outside the program through the
   layers' public functions. A workload is set up once per
   configuration ([setup]: boot, prepare, warm up) and then measured
   once ([measure]: a fixed, seeded number of ops). Everything the
   program computes runs on the simulated clock, so for a given seed
   every simulated figure a window produces is exact and repeatable. *)

module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Net = Encl_kernel.Net
module Httpd = Encl_apps.Httpd
module Wiki = Encl_apps.Wiki
module Bild = Encl_apps.Bild
module Pyrt = Encl_pylike.Pyrt

type config = Lb.backend option

let configs = None :: List.map Option.some Encl_litterbox.Backend.all

let config_name = Encl_apps.Scenarios.config_name

(* What one measured window produced for one configuration. *)
type sample = {
  ops : int;
  failed : int;  (** ops whose output check failed, plus enclosure faults *)
  lat_ns : int array;
      (** simulated latencies: one per request or invert, one per plot
          call on python *)
  wall_ns : int;  (** simulated makespan of the window *)
  delta : Counters.t;  (** counter movement over the window *)
  attrib : Counters.attrib option;  (** traced windows only *)
  verify_s : float;  (** host seconds the window spent checking outputs *)
}

type instance = { measure : unit -> sample }

(* Output checks: run (and timed) apart from the work they check, so
   that host throughput excludes them. *)
type checker = { mutable bad : int; mutable secs : float }

let checker () = { bad = 0; secs = 0. }

let check c ok_fn =
  Spans.span "verify" (fun () ->
      let t0 = Spans.now () in
      if not (ok_fn ()) then c.bad <- c.bad + 1;
      c.secs <- c.secs +. (Spans.now () -. t0))

(* A measured window over machine [m]: counters before and after, the
   simulated makespan, and (when tracing) a fresh attribution ledger. *)
let window ~traced ?sched ?py (m : Machine.t) lb run =
  let clock = m.Machine.clock in
  if traced then Counters.attrib_reset m;
  let c0 = Counters.snapshot ?sched ?py m lb in
  let w0 = Clock.wall clock in
  let c = checker () in
  let ops, lat_ns = run c in
  let wall_ns = Clock.wall clock - w0 in
  let delta = Counters.diff c0 (Counters.snapshot ?sched ?py m lb) in
  {
    ops;
    failed = min ops (c.bad + delta.Counters.faults);
    lat_ns;
    wall_ns;
    delta;
    attrib = (if traced then Some (Counters.attrib m) else None);
    verify_s = c.secs;
  }

let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]
let random_bytes st n = Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

let random_word st ~len =
  String.init len (fun _ -> Char.chr (Char.code 'a' + Random.State.int st 26))

let runtime_config config ~cores =
  match config with
  | None -> { Runtime.baseline with Runtime.cores }
  | Some b -> { (Runtime.with_backend b) with Runtime.cores }

let boot config ~cores ~packages =
  Spans.span "boot" (fun () ->
      match Runtime.boot (runtime_config config ~cores) ~packages ~entry:"main" with
      | Ok rt -> rt
      | Error e -> failwith ("boot: " ^ e))

let enclosure name ~policy ~closure ~deps =
  { Encl_elf.Objfile.enc_name = name; enc_policy = policy; enc_closure = closure; enc_deps = deps }

(* One closed-loop round over persistent connections: each connection
   sends its request, one scheduler pass serves them all, then every
   response is read and checked. A request's latency runs from its send
   to the end of that pass, an upper bound in a closed loop. *)
let round rt c eps reqs ~expect =
  let clock = Runtime.clock rt in
  let t0 = Clock.wall clock in
  Spans.span "client" (fun () -> List.iter2 (fun ep send -> send ep) eps reqs);
  Spans.span "kick" (fun () -> Runtime.kick rt);
  let lat = Clock.wall clock - t0 in
  let resps = Spans.span "client" (fun () -> List.map (Httpd.client_read_response rt) eps) in
  List.iter2 (fun resp want -> check c (fun () -> Bytes.to_string resp = want)) resps expect;
  List.map (fun _ -> lat) eps

let connect rt ~port ~conns =
  Runtime.kick rt;
  let eps = List.init conns (fun _ -> Httpd.client_connect rt ~port) in
  Runtime.kick rt;
  eps

let rounds_window ~traced rt ~rounds one_round =
  let m = Runtime.machine rt in
  window ~traced ~sched:(Runtime.sched rt) m (Runtime.lb rt) (fun c ->
      let lat = Array.of_list (List.concat (List.init rounds (fun _ -> one_round c))) in
      (Array.length lat, lat))

(* ------------------------------------------------------------------ *)
(* http: Table 2's net/http server, request handler enclosed           *)

let page_bytes = 13 * 1024

let http_response page =
  Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n%s"
    (Bytes.length page) (Bytes.to_string page)

(* [page] is the 13 KiB asset; [requests] are split into rounds over
   [conns] connections. With page = 'x' bytes this is exactly
   Scenarios.http. *)
let http_setup ~page ~requests ~conns ~traced config =
  let main =
    Runtime.package "main" ~imports:[ Httpd.pkg; "assets" ]
      ~functions:[ ("main", 512); ("handler_body", 256) ]
      ~enclosures:
        [ enclosure "handler_enc" ~policy:"assets:R; sys=none" ~closure:"handler_body" ~deps:[] ]
      ()
  in
  let assets =
    Runtime.package "assets" ~constants:[ ("index_html", Bytes.length page, Some page) ] ()
  in
  let rt = boot config ~cores:1 ~packages:(main :: assets :: Httpd.packages ()) in
  let want = http_response page in
  let eps =
    Spans.span "prepare" (fun () ->
        let m = Runtime.machine rt in
        let asset = Runtime.global rt ~pkg:"assets" "index_html" in
        let handler ~meth:_ ~path:_ =
          Runtime.with_enclosure rt "handler_enc" (fun () ->
              ignore (Gbuf.get m asset 0);
              asset)
        in
        Runtime.run_main rt (fun () -> Httpd.serve rt ~port:8080 ~handler);
        let eps = connect rt ~port:8080 ~conns in
        (* Warm-up round. *)
        List.iter (fun ep -> Httpd.client_get rt ep ~path:"/page/home") eps;
        Runtime.kick rt;
        List.iter (fun ep -> ignore (Httpd.client_read_response rt ep)) eps;
        eps)
  in
  let get ep = Httpd.client_get rt ep ~path:"/page/home" in
  let reqs = List.map (fun _ -> get) eps and expect = List.map (fun _ -> want) eps in
  {
    measure =
      (fun () ->
        rounds_window ~traced rt ~rounds:(requests / conns) (fun c ->
            round rt c eps reqs ~expect));
  }

(* The simulated costs do not depend on byte values, so the seed also
   draws the page size, within 1% of 13 KiB: different seeds then
   measure different inputs, as a benchmark's seeds should. *)
let http ~seed ~requests ~traced config =
  let st = rng ~seed "http" in
  let page = random_bytes st (page_bytes - 128 + Random.State.int st 256) in
  http_setup ~page ~requests ~conns:8 ~traced config

(* ------------------------------------------------------------------ *)
(* wiki_smp: Figure 5's wiki on four simulated cores                   *)

let wiki_port = 8090

let wiki_response body =
  let html = "<html><body>" ^ body ^ "</body></html>" in
  Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" (String.length html) html

let wiki ~seed ~requests ~traced config =
  let st = rng ~seed "wiki" in
  let conns = 4 in
  let rt = boot config ~cores:4 ~packages:(Wiki.main_package () :: Wiki.packages ()) in
  let net = (Runtime.machine rt).Machine.net in
  (* The host-side model of the page table: titles in insertion order
     and their bodies. *)
  let titles = ref [||] and bodies = Hashtbl.create 256 in
  let add title body =
    titles := Array.append !titles [| title |];
    Hashtbl.replace bodies title body
  in
  (* New pages: titles of 2 to 5 letters, the range of the repository's
     own ("pl", "home", "about", "ocaml"). Body sizes are an assumption,
     drawn uniformly between two bounds the repository sets: its
     smallest page body (19 bytes, "Welcome to the wiki") and the most
     a POST can carry in the wiki's one 4096-byte request read. Bodies
     must span whole KiB: the wiki charges response assembly per KiB,
     so with the repository's 19- to 38-byte bodies alone the latency
     tail does not depend on the seed. *)
  let fresh_title () =
    let rec go () =
      let t = random_word st ~len:(2 + Random.State.int st 4) in
      if Hashtbl.mem bodies t then go () else t
    in
    go ()
  in
  let post_head title = Printf.sprintf "POST /page/%s HTTP/1.1\r\nHost: sim\r\n\r\n|" title in
  let max_body = 4096 - String.length (post_head "ocaml") (* the longest title *) in
  let fresh_body () = random_word st ~len:(19 + Random.State.int st (max_body - 18)) in
  let request = function
    | `Get title ->
        ( (fun ep -> Httpd.client_get rt ep ~path:("/page/" ^ title)),
          wiki_response (Hashtbl.find bodies title) )
    | `Post (title, body) ->
        let req = post_head title ^ body in
        ( (fun ep -> match Net.send net ep (Bytes.of_string req) with Ok _ -> () | Error e -> failwith e),
          wiki_response "created" )
  in
  let eps = ref [] in
  (* One round: 90% GETs of titles stored before the round, 10% POSTs
     of new titles, which the model records once the round is over. *)
  let one_round c =
    let plan =
      List.init conns (fun _ ->
          if Random.State.int st 10 = 0 then `Post (fresh_title (), fresh_body ())
          else `Get !titles.(Random.State.int st (Array.length !titles)))
    in
    let reqs, expect = List.split (List.map request plan) in
    let lat = round rt c !eps reqs ~expect in
    List.iter (function `Post (t, b) -> add t b | `Get _ -> ()) plan;
    lat
  in
  Spans.span "prepare" (fun () ->
      (* The database starts as Scenarios.wiki's does: the two pages
         Wiki.setup_remote_db stores. The POSTs grow it. *)
      ignore (Wiki.setup_remote_db rt);
      add "home" "Welcome to the wiki";
      add "about" "A wiki about enclosures";
      Wiki.reset_counters ();
      Runtime.run_main rt (fun () -> Wiki.start rt ~port:wiki_port ~enclosed:(config <> None) ());
      eps := connect rt ~port:wiki_port ~conns;
      (* Warm-up round, checked like any other. *)
      let c = checker () in
      ignore (one_round c);
      if c.bad > 0 then failwith "wiki warm-up: wrong response");
  {
    measure =
      (fun () -> rounds_window ~traced rt ~rounds:(requests / conns) one_round);
  }

(* ------------------------------------------------------------------ *)
(* bild: Table 2's enclosed invert of a secret image                   *)

let bild_setup ~image ~width ~height ~iters ~traced config =
  let secrets = Runtime.package "secrets" ~functions:[ ("load_image", 256) ] () in
  let main =
    Runtime.package "main" ~imports:[ Bild.pkg; "secrets" ]
      ~functions:[ ("main", 512); ("rcl_body", 256) ]
      ~enclosures:
        [ enclosure "rcl" ~policy:"secrets:R; sys=none" ~closure:"rcl_body" ~deps:[ Bild.pkg ] ]
      ()
  in
  let rt = boot config ~cores:1 ~packages:(main :: secrets :: Bild.packages ()) in
  let m = Runtime.machine rt in
  let invert src =
    Spans.span "invert" (fun () ->
        Runtime.with_enclosure rt "rcl" (fun () -> Bild.invert rt ~src ~width ~height))
  in
  let src, want =
    Spans.span "prepare" (fun () ->
        let src = Runtime.alloc_in rt ~pkg:"secrets" (Bytes.length image) in
        Gbuf.write_bytes m src image;
        let want = ref 0 in
        Bytes.iter (fun ch -> want := !want + 255 - Char.code ch) image;
        ignore (invert src);
        (src, !want))
  in
  let clock = Runtime.clock rt in
  {
    measure =
      (fun () ->
        window ~traced ~sched:(Runtime.sched rt) m (Runtime.lb rt) (fun c ->
            ( iters,
              Array.init iters (fun _ ->
                  let t0 = Clock.wall clock in
                  let out = invert src in
                  (* Bild's own checksum is simulated work, counted in
                     the op as in Scenarios.bild; comparing it is the
                     check. *)
                  check c (fun () -> Bild.checksum rt out = want);
                  Clock.wall clock - t0) )));
  }

(* As for http, the seed also draws the image height, within 4 rows
   of 1024. *)
let bild ~seed ~iters ~traced config =
  let st = rng ~seed "bild" in
  let width = 1024 and height = 1020 + Random.State.int st 9 in
  let image = random_bytes st (width * height * 4) in
  bild_setup ~image ~width ~height ~iters ~traced config

(* ------------------------------------------------------------------ *)
(* python: §6.4's matplotlib plot of secret points (pylike)            *)

(* The plot's own work, as calibrated in Plot_experiment. *)
let per_point_ns = 75
let render_ns = 1_200_000
let matplotlib_deps = [ "numpy"; "cycler"; "dateutil"; "kiwisolver"; "pyparsing"; "pillow" ]

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let python ~seed ~points ~traced config =
  let st = rng ~seed "python" in
  let py =
    Spans.span "boot" (fun () -> ok "pyrt boot" (Pyrt.boot ?backend:config ~mode:Pyrt.Conservative ()))
  in
  let m = Pyrt.machine py in
  let clock = m.Machine.clock in
  let syscall call =
    match Pyrt.lb py with Some lb -> Lb.syscall lb call | None -> K.syscall m.Machine.kernel call
  in
  let data, want =
    Spans.span "prepare" (fun () ->
        ok "import secret"
          (Pyrt.import_module py ~name:"secret" ~arena_bytes:((points * 32) + (1 lsl 16)) ());
        let want = ref 0 in
        let data =
          Array.init points (fun _ ->
              let obj = Pyrt.alloc_obj py ~modul:"secret" ~len:8 in
              let payload = random_bytes st 8 in
              want := !want + Char.code (Bytes.get payload 0);
              Pyrt.write_payload py obj payload;
              obj)
        in
        List.iter (fun name -> ok "import" (Pyrt.import_module py ~name ())) matplotlib_deps;
        ok "import matplotlib"
          (Pyrt.import_module py ~name:"matplotlib" ~imports:matplotlib_deps
             ~arena_bytes:(4 * 1024 * 1024) ());
        (data, !want))
  in
  (* Walk the first [n] points inside plot_enc, render, write the plot
     to [path]; returns the sum of the points' first bytes. *)
  let plot n path =
    let body () =
      let acc = ref 0 in
      for i = 0 to n - 1 do
        let obj = data.(i) in
        Spans.span "refcount" (fun () -> Pyrt.incref py obj);
        let payload = Spans.span "payload" (fun () -> Pyrt.read_payload py obj) in
        acc := !acc + Char.code (Bytes.get payload 0);
        Clock.consume clock Clock.Compute per_point_ns;
        Spans.span "refcount" (fun () -> Pyrt.decref py obj)
      done;
      let figure = Pyrt.alloc_obj py ~modul:"matplotlib" ~len:65536 in
      Pyrt.write_payload py figure (Bytes.make 65536 'P');
      Clock.consume clock Clock.Compute render_ns;
      let fd =
        match syscall (K.Open { path; flags = [ K.O_wronly; K.O_creat ] }) with
        | Ok fd -> fd
        | Error e -> failwith ("open: " ^ K.errno_name e)
      in
      ignore (syscall (K.Write { fd; buf = figure.Pyrt.o_addr + Pyrt.header_bytes; len = 65536 }));
      ignore (syscall (K.Close fd));
      !acc
    in
    Pyrt.with_enclosure py ~name:"plot_enc" ~owner:"__main__" ~deps:[ "matplotlib" ]
      ~policy:"secret:R; sys=io,file" body
  in
  (* Warm-up: the first plot registers the enclosure (LitterBox Init,
     KVM set-up for LB_VTX) and is not measured. *)
  Spans.span "prepare" (fun () ->
      let n = max 1 (points / 100) in
      ignore (ok "warm-up plot" (plot n "/warm-up.png")));
  {
    measure =
      (fun () ->
        window ~traced ~py m (Pyrt.lb py) (fun c ->
            let t0 = Clock.wall clock in
            let result = plot points "/plot.png" in
            let lat = Clock.wall clock - t0 in
            check c (fun () ->
                result = Ok want && Encl_kernel.Vfs.exists m.Machine.vfs "/plot.png");
            (* A faulted plot fails every point. *)
            if Result.is_error result then c.bad <- points;
            (points, [| lat |])));
  }
