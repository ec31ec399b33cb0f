(* The benchmark's own tests: its workloads reproduce the scenarios they
   re-implement, and its simulated figures are deterministic with and
   without tracing. *)

open Perfbench
module W = Workloads
module Scenarios = Encl_apps.Scenarios

let () = Counters.pin_defaults ()
let sim_rate (s : W.sample) = float_of_int s.W.ops /. (float_of_int s.W.wall_ns /. 1e9)

let sim_figures (s : W.sample) = (s.W.ops, s.W.failed, s.W.lat_ns, s.W.wall_ns, s.W.delta)

let http_matches_scenarios () =
  List.iter
    (fun config ->
      let page = Bytes.make W.page_bytes 'x' in
      let s = (W.http_setup ~page ~requests:2000 ~conns:8 ~traced:false config).W.measure () in
      let r = Scenarios.http config ~rcfg:(W.runtime_config config ~cores:1) ~requests:2000 () in
      Alcotest.(check int) "no failed requests" 0 s.W.failed;
      Alcotest.(check (float 0.)) (W.config_name config ^ " req/s") r.Scenarios.h_req_per_sec
        (sim_rate s))
    W.configs

let bild_matches_scenarios () =
  List.iter
    (fun config ->
      let width = 256 and height = 256 in
      let image = Bytes.make (width * height * 4) '\x55' in
      let s = (W.bild_setup ~image ~width ~height ~iters:3 ~traced:false config).W.measure () in
      let r =
        Scenarios.bild config ~rcfg:(W.runtime_config config ~cores:1) ~width ~height ~iters:3 ()
      in
      Alcotest.(check int) "checksums match" 0 s.W.failed;
      Alcotest.(check int) (W.config_name config ^ " ns/invert") r.Scenarios.b_ns_per_invert
        (s.W.wall_ns / 3))
    W.configs

let measure ~traced setup =
  Counters.set_tracing traced;
  Fun.protect ~finally:(fun () -> Counters.set_tracing false) (fun () ->
      (setup ~traced).W.measure ())

let same_seed_same_figures () =
  List.iter
    (fun config ->
      let run () = measure ~traced:false (W.wiki ~seed:7 ~requests:80 config) in
      let a = run () and b = run () in
      Alcotest.(check int) "wiki checks pass" 0 a.W.failed;
      Alcotest.(check bool) (W.config_name config ^ " wiki repeats") true
        (sim_figures a = sim_figures b);
      let py () = measure ~traced:false (W.python ~seed:7 ~points:500 config) in
      Alcotest.(check bool) (W.config_name config ^ " python repeats") true
        (sim_figures (py ()) = sim_figures (py ())))
    W.configs

let tracing_leaves_figures_alone () =
  List.iter
    (fun config ->
      let run traced = measure ~traced (W.wiki ~seed:3 ~requests:80 config) in
      let plain = run false and traced = run true in
      Alcotest.(check bool) "traced window has attribution" true
        (traced.W.attrib <> None && plain.W.attrib = None);
      Alcotest.(check bool) (W.config_name config ^ " traced = untraced") true
        (sim_figures plain = sim_figures traced))
    W.configs

let () =
  Alcotest.run "perfbench"
    [
      ( "cross-check",
        [
          Alcotest.test_case "http reproduces Scenarios.http" `Quick http_matches_scenarios;
          Alcotest.test_case "bild reproduces Scenarios.bild" `Quick bild_matches_scenarios;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same simulated figures" `Quick same_seed_same_figures;
          Alcotest.test_case "tracing leaves simulated figures alone" `Quick
            tracing_leaves_figures_alone;
        ] );
    ]
