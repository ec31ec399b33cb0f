(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6) on the simulated machine, then runs one
   Bechamel micro-benchmark per table measuring the harness itself.

   Set ENCL_BENCH_QUICK=1 to shrink workload sizes (CI mode). *)

module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Scenarios = Encl_apps.Scenarios
module Legacy = Encl_attack.Legacy
module Cli = Encl_cli.Cli
module Attack = Encl_attack.Attack
module Backend = Encl_litterbox.Backend
module Bild = Encl_apps.Bild
module Fasthttp = Encl_apps.Fasthttp
module Plot = Encl_pylike.Plot_experiment
module Pyrt = Encl_pylike.Pyrt
module Experiments = Encl_apps.Experiments

let quick = Sys.getenv_opt "ENCL_BENCH_QUICK" = Some "1"

(* Every backend, from the one canonical list: a backend added to
   [Backend.all] shows up in every table below with no edits here. *)
let backends = Encl_litterbox.Backend.all
let configs = None :: List.map (fun b -> Some b) backends

(* Every legacy table runs on the classic single-core machine no matter
   what ENCL_CORES says, so the committed baseline rows never depend on
   the environment; the smp_http section pins its core count per row. *)
let rcfg_of config =
  match config with
  | None -> { Runtime.baseline with Runtime.cores = 1 }
  | Some b -> { (Runtime.with_backend b) with Runtime.cores = 1 }

(* Scenario runs go through one memoizing runner, [run], which the
   sections that share legs take as an argument: the default-flags http
   leg feeds Table 2, the fast-path and ring rows and policy mining, and
   runs once. The runner keeps every run's machine alive, so it is
   dropped before the Bechamel section measures host time. *)
let leg = Experiments.leg ~quick

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_results.json)                       *)

module Json = Encl_obs.Export.Json

let results : Json.t list ref = ref []

(* One row per (workload, backend, metric); [paper] is the value the
   paper reports for that cell, when it reports one. *)
let add_result ~workload ~backend ~metric ?paper value =
  results :=
    Json.Obj
      [
        ("workload", Json.String workload);
        ("backend", Json.String backend);
        ("metric", Json.String metric);
        ("value", Json.Float value);
        ("paper", match paper with Some p -> Json.Float p | None -> Json.Null);
      ]
    :: !results

let add_row ~workload ~metric ?(papers = []) values =
  List.iteri
    (fun i (config, value) ->
      add_result ~workload ~backend:(Scenarios.config_name config) ~metric
        ?paper:(List.nth_opt papers i) value)
    values

let write_results () =
  let doc =
    Json.Obj
      [ ("quick", Json.Bool quick); ("rows", Json.List (List.rev !results)) ]
  in
  Cli.write_file ~tool:"bench" "BENCH_results.json" (Json.to_string doc);
  Printf.printf "wrote BENCH_results.json (%d rows)\n"
    (List.length !results)

(* ------------------------------------------------------------------ *)
(* Micro-benchmark program (Table 1)                                   *)

let micro_packages () =
  [
    Runtime.package "main" ~imports:[ "libFx" ]
      ~functions:[ ("main", 128); ("empty_body", 64); ("io_body", 64) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "empty";
            enc_policy = "; sys=none";
            enc_closure = "empty_body";
            enc_deps = [ "libFx" ];
          };
          {
            (* A distinct memory view from "empty" so the two enclosures
               get distinct PKRU values: LB_MPK's seccomp program
               dispatches on PKRU and merges filters of identical views
               fail-closed. *)
            Encl_elf.Objfile.enc_name = "io_enc";
            enc_policy = "img:U; sys=all";
            enc_closure = "io_body";
            enc_deps = [ "libFx" ];
          };
        ]
      ();
    Runtime.package "libFx" ~imports:[ "img" ]
      ~functions:[ ("invert", 256) ]
      ();
    Runtime.package "img" ~functions:[ ("decode", 128) ] ();
  ]

let micro_boot config =
  match
    Runtime.boot (rcfg_of config) ~packages:(micro_packages ()) ~entry:"main"
  with
  | Ok rt -> rt
  | Error e -> failwith ("micro boot: " ^ e)

let median values =
  let sorted = List.sort compare values in
  List.nth sorted (List.length sorted / 2)

let iters = if quick then 1_000 else 100_000

(* Time to call and return from an empty enclosure. *)
let micro_call config =
  let rt = micro_boot config in
  let clock = Runtime.clock rt in
  let samples = ref [] in
  for _ = 1 to iters do
    let t0 = Clock.now clock in
    Runtime.with_enclosure rt "empty" (fun () -> ());
    samples := (Clock.now clock - t0) :: !samples
  done;
  median !samples

(* Transfer of a 4-page memory section. *)
let micro_transfer config =
  match config with
  | None -> 0 (* no LitterBox: spans never change protection domains *)
  | Some _ ->
      let rt = micro_boot config in
      let lb = Option.get (Runtime.lb rt) in
      let clock = Runtime.clock rt in
      let addr = Runtime.syscall_exn rt (K.Mmap { len = 4 * Phys.page_size }) in
      let samples = ref [] in
      let flip = ref false in
      for _ = 1 to min iters 20_000 do
        let to_pkg = if !flip then "img" else "libFx" in
        flip := not !flip;
        let t0 = Clock.now clock in
        Lb.transfer lb ~addr ~len:(4 * Phys.page_size) ~to_pkg
          ~site:"runtime.mallocgc";
        samples := (Clock.now clock - t0) :: !samples
      done;
      median !samples

(* getuid(2) in a loop, from inside an enclosure that permits it. *)
let micro_syscall config =
  let rt = micro_boot config in
  let clock = Runtime.clock rt in
  let samples = ref [] in
  let measure () =
    for _ = 1 to iters do
      let t0 = Clock.now clock in
      ignore (Runtime.syscall rt K.Getuid);
      samples := (Clock.now clock - t0) :: !samples
    done
  in
  (match config with
  | None -> measure ()
  | Some _ -> Runtime.with_enclosure rt "io_enc" measure);
  median !samples

let table1 () =
  section "Table 1: Microbenchmarks (ns, median)";
  (* Paper values are positional over [configs]; backends beyond the
     paper's table (LWC, SFI) have no paper cell. *)
  let rows =
    [
      ("call", micro_call, [ 45.; 86.; 924. ]);
      ("transfer", micro_transfer, [ 0.; 1002.; 158. ]);
      ("syscall", micro_syscall, [ 387.; 523.; 4126. ]);
    ]
  in
  Printf.printf "%-10s" "";
  List.iter
    (fun c -> Printf.printf " %10s" (Scenarios.config_name c))
    configs;
  print_newline ();
  List.iter
    (fun (name, f, papers) ->
      let values = List.map f configs in
      add_row ~workload:"table1" ~metric:(name ^ "_ns") ~papers
        (List.combine configs (List.map float_of_int values));
      Printf.printf "%-10s" name;
      List.iter (fun v -> Printf.printf " %10d" v) values;
      Printf.printf "\n%!")
    rows;
  Printf.printf
    "(paper:    call 45/86/924; transfer 0/1002/158; syscall 387/523/4126; \
     SFI's call ~pays only the trampoline, its transfer only bounds \
     metadata)\n"

(* ------------------------------------------------------------------ *)
(* Table 2: macrobenchmarks                                            *)

(* A server row of Table 2 or Figure 5: req/s per config, and each
   backend's slowdown against the Baseline. *)
let server_row run label scenario ?(papers = []) note =
  let rps =
    List.map (fun c -> Experiments.req_per_sec (run (leg scenario c))) configs
  in
  add_row ~workload:scenario ~metric:"req_per_sec" ~papers
    (List.combine configs rps);
  let base = List.hd rps in
  Printf.printf "%-10s %7.0freq/s" label base;
  List.iter (fun v -> Printf.printf " %7.0freq/s (%.2fx)" v (base /. v)) (List.tl rps);
  Printf.printf " %s\n%!" note

let table2 run =
  section "Table 2: Macrobenchmarks";
  let bild_iters = if quick then 1 else 3 in
  let dim = if quick then 256 else 1024 in
  (* bild *)
  let bild_res =
    List.map
      (fun c ->
        Scenarios.bild c ~rcfg:(rcfg_of c) ~width:dim ~height:dim
          ~iters:bild_iters ())
      configs
  in
  let ms_res =
    List.map (fun r -> float_of_int r.Scenarios.b_ns_per_invert /. 1e6) bild_res
  in
  add_row ~workload:"bild" ~metric:"ms_per_invert"
    ~papers:[ 13.25; 13.25 *. 1.12; 13.25 *. 1.05 ]
    (List.combine configs ms_res);
  (match ms_res with
  | b :: rest ->
      Printf.printf "bild       %8.2fms " b;
      List.iter (fun v -> Printf.printf " %8.2fms (%.2fx)" v (v /. b)) rest;
      Printf.printf "   [paper: 13.25 / 1.12x / 1.05x]\n%!"
  | [] -> assert false);
  server_row run "HTTP" "http"
    ~papers:[ 16991.; 16991. /. 1.02; 16991. /. 1.77 ]
    "[paper: 16991 / 1.02x / 1.77x]";
  server_row run "FastHTTP" "fasthttp"
    ~papers:[ 22867.; 22867. /. 1.04; 22867. /. 2.01 ]
    "[paper: 22867 / 1.04x / 2.01x]";
  (* The TCB-information columns of Table 2. *)
  Printf.printf
    "\nBenchmark information (Table 2, right side):\n%-10s %-10s %-14s %-12s\n"
    "App" "#Enclosed" "#Public deps" "enclosures";
  Printf.printf "%-10s %-10d %-14d %s\n" "bild" (1 + Bild.dep_count) 1
    "rcl (secrets:R; sys=none)";
  Printf.printf "%-10s %-10d %-14d %s\n" "HTTP" 0 0
    "handler_enc (assets:R; sys=none)";
  Printf.printf "%-10s %-10d %-14d %s\n" "FastHTTP" (1 + Fasthttp.dep_count) 1
    "fasthttp_srv (; sys=net)"

(* ------------------------------------------------------------------ *)
(* Figure 5: the wiki application                                      *)

let figure5 run =
  section "Figure 5: wiki-like web application (mux + pq + Postgres)";
  server_row run "wiki" "wiki"
    "(paper: the throughput slowdown is similar to FastHTTP's)";
  match Scenarios.wiki_check (Some Lb.Vtx) with
  | Ok body ->
      Printf.printf "functional check (POST then GET through both enclosures): %s\n"
        body
  | Error e ->
      prerr_endline ("bench: Figure 5 functional check failed: " ^ e);
      exit 1

(* ------------------------------------------------------------------ *)
(* §6.4: Python enclosures                                             *)

let python () =
  section "Section 6.4: Python enclosures (matplotlib plot of secret data)";
  let points = if quick then 25_000 else 250_000 in
  let base = Plot.run ~mode:Pyrt.Conservative ~points () in
  let cons = Plot.run ~backend:Lb.Vtx ~mode:Pyrt.Conservative ~points () in
  let dec = Plot.run ~backend:Lb.Vtx ~mode:Pyrt.Decoupled ~points () in
  let ms ns = float_of_int ns /. 1e6 in
  let slow r = float_of_int r.Plot.total_ns /. float_of_int base.Plot.total_ns in
  add_result ~workload:"python" ~backend:"LB_VTX"
    ~metric:"conservative_slowdown" ~paper:18.0 (slow cons);
  add_result ~workload:"python" ~backend:"LB_VTX" ~metric:"decoupled_slowdown"
    ~paper:1.4 (slow dec);
  Printf.printf "%-22s %10s %10s %10s %12s\n" "" "total" "switch" "init" "switches";
  Printf.printf "%-22s %8.1fms %8.1fms %8.1fms %12d\n" "CPython baseline"
    (ms base.Plot.total_ns) (ms base.Plot.switch_ns) (ms base.Plot.init_ns)
    base.Plot.switches;
  Printf.printf
    "%-22s %8.1fms %8.1fms %8.1fms %12d  -> %.1fx  [paper ~18x, ~1M switches]\n"
    "LB_VTX conservative" (ms cons.Plot.total_ns) (ms cons.Plot.switch_ns)
    (ms cons.Plot.init_ns) cons.Plot.switches (slow cons);
  Printf.printf "%-22s %8.1fms %8.1fms %8.1fms %12d  -> %.2fx [paper ~1.4x]\n"
    "LB_VTX decoupled" (ms dec.Plot.total_ns) (ms dec.Plot.switch_ns)
    (ms dec.Plot.init_ns) dec.Plot.switches (slow dec);
  Printf.printf
    "init share of conservative slowdown: %.1f%% (paper: 4.3%%); syscall share: %.2f%%\n"
    (100.0
    *. float_of_int cons.Plot.init_ns
    /. float_of_int (cons.Plot.total_ns - base.Plot.total_ns))
    (100.0
    *. float_of_int (cons.Plot.syscall_ns - base.Plot.syscall_ns)
    /. float_of_int (cons.Plot.total_ns - base.Plot.total_ns));
  (* Beyond the paper: the same conservative port under LB_MPK, whose
     41ns switch pair makes even per-refcount excursions affordable. *)
  let mpk_cons = Plot.run ~backend:Lb.Mpk ~mode:Pyrt.Conservative ~points () in
  Printf.printf
    "%-22s %8.1fms %8.1fms %8.1fms %12d  -> %.2fx [extension: not in the paper]\n"
    "LB_MPK conservative" (ms mpk_cons.Plot.total_ns) (ms mpk_cons.Plot.switch_ns)
    (ms mpk_cons.Plot.init_ns) mpk_cons.Plot.switches (slow mpk_cons)

(* ------------------------------------------------------------------ *)
(* §6.5: security                                                      *)

let security () =
  section "Section 6.5: malicious-package attacks";
  Printf.printf "%-14s %-20s %-6s %-8s %-6s\n" "attack" "mitigation" "legit"
    "blocked" "exfil";
  List.iter
    (fun attack ->
      List.iter
        (fun mitigation ->
          let backend =
            match mitigation with Legacy.Unprotected -> None | _ -> Some Lb.Mpk
          in
          let o = Legacy.run ~backend attack mitigation in
          Printf.printf "%-14s %-20s %-6b %-8b %-6d\n%!"
            (Legacy.attack_name attack)
            (Legacy.mitigation_name mitigation)
            o.Legacy.legit_ok o.Legacy.attack_blocked o.Legacy.exfiltrated)
        Legacy.all_mitigations)
    Legacy.all_attacks;
  Printf.printf
    "(ssh-decorator needs mitigation 1 or 2 to keep working while contained, \
     as in the paper)\n"

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)

let ablations () =
  section "Ablations";
  (* 1. Meta-package clustering (paper 5.3). Without it, every package
     needs its own protection key and LB_MPK cannot even initialize the
     FastHTTP program (104 packages). *)
  let main =
    Runtime.package "main" ~imports:[ Fasthttp.pkg ]
      ~functions:[ ("main", 64); ("b", 32) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "srv";
            enc_policy = "; sys=net";
            enc_closure = "b";
            enc_deps = [ Fasthttp.pkg ];
          };
        ]
      ()
  in
  let packages = main :: Fasthttp.packages () in
  let npkgs = List.length packages + 2 (* + litterbox user/super *) in
  (match Runtime.boot (rcfg_of (Some Lb.Mpk)) ~packages ~entry:"main" with
  | Ok rt ->
      let lb = Option.get (Runtime.lb rt) in
      Printf.printf
        "clustering ON:  %d packages fit in %d meta-packages (protection keys)
"
        npkgs
        (Encl_litterbox.Cluster.count (Lb.cluster lb))
  | Error e -> Printf.printf "clustering ON: unexpected failure: %s
" e);
  (match
     Runtime.boot
       { (rcfg_of (Some Lb.Mpk)) with Runtime.clustering = false }
       ~packages ~entry:"main"
   with
  | Ok _ -> Printf.printf "clustering OFF: unexpectedly initialized
"
  | Error e -> Printf.printf "clustering OFF: %s
" e);
  (* 2. TLB locality: LB_MPK switches write PKRU and keep the same page
     table (TLB stays warm); LB_VTX switches move CR3 and flush it. *)
  let tlb_flushes backend =
    let rt = micro_boot (Some backend) in
    let cpu = (Runtime.machine rt).Machine.cpu in
    let f0 = Tlb.flushes (Cpu.tlb cpu) in
    for _ = 1 to 100 do
      Runtime.with_enclosure rt "empty" (fun () -> ())
    done;
    Tlb.flushes (Cpu.tlb cpu) - f0
  in
  Printf.printf
    "TLB flushes across 100 enclosure calls: LB_MPK %d, LB_VTX %d
"
    (tlb_flushes Lb.Mpk) (tlb_flushes Lb.Vtx);
  (* 3. Default-policy annotation burden (paper 3.1): the default view
     needs zero annotations for the packages an enclosure uses; the
     deny-all alternative would require listing every natural
     dependency. *)
  (match Runtime.boot (rcfg_of None) ~packages ~entry:"main" with
  | Error e -> Printf.printf "annotation count: boot failed: %s
" e
  | Ok rt ->
      let g = (Runtime.image rt).Encl_elf.Image.graph in
      let nat = List.length (Encl_pkg.Graph.natural_deps g Fasthttp.pkg) + 1 in
      Printf.printf
        "default policy: the FastHTTP enclosure needs 0 memory annotations;
         an allow-list alternative would enumerate %d packages (and track
         them across upgrades)
"
        nat)

(* ------------------------------------------------------------------ *)
(* Bechamel: harness wall-clock, one Test.make per table               *)

let bechamel_tests () =
  let open Bechamel in
  let mpk_rt = micro_boot (Some Lb.Mpk) in
  let vtx_rt = micro_boot (Some Lb.Vtx) in
  let t1_call =
    Test.make ~name:"table1/mpk-enclosure-call"
      (Staged.stage (fun () -> Runtime.with_enclosure mpk_rt "empty" (fun () -> ())))
  in
  let t1_syscall =
    Test.make ~name:"table1/vtx-syscall"
      (Staged.stage (fun () -> ignore (Runtime.syscall vtx_rt K.Getuid)))
  in
  let t2_bild =
    Test.make ~name:"table2/bild-64x64-invert"
      (Staged.stage (fun () ->
           ignore
             (Scenarios.bild (Some Lb.Mpk) ~rcfg:(rcfg_of (Some Lb.Mpk))
                ~width:64 ~height:64 ~iters:1 ())))
  in
  let f5_wiki =
    Test.make ~name:"figure5/wiki-24-requests"
      (Staged.stage (fun () ->
           ignore
             (Scenarios.wiki (Some Lb.Vtx) ~rcfg:(rcfg_of (Some Lb.Vtx))
                ~requests:24 ~conns:4 ())))
  in
  let p64_python =
    Test.make ~name:"section6.4/python-1k-points"
      (Staged.stage (fun () ->
           ignore (Plot.run ~backend:Lb.Vtx ~mode:Pyrt.Conservative ~points:1_000 ())))
  in
  let s65_attack =
    Test.make ~name:"section6.5/ssh-decorator-run"
      (Staged.stage (fun () ->
           ignore
             (Legacy.run ~backend:(Some Lb.Mpk) Legacy.Ssh_decorator
                Legacy.Default_policy)))
  in
  [
    (Lb.Mpk, t1_call);
    (Lb.Vtx, t1_syscall);
    (Lb.Mpk, t2_bild);
    (Lb.Vtx, f5_wiki);
    (Lb.Vtx, p64_python);
    (Lb.Mpk, s65_attack);
  ]

(* Each estimate is also a [host_ns_per_run] row, keyed by the test
   name and the backend it runs on. Host time is noisy, so the gate
   treats these rows as informational. *)
let run_bechamel () =
  section "Bechamel: harness wall-clock cost (one Test.make per table)";
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if quick then 0.1 else 0.5))
      ~kde:None ()
  in
  List.iter
    (fun (backend, test) ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ instance ] elt in
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
              Printf.printf "%-34s %12.1f ns/run (wall clock)\n%!"
                (Test.Elt.name elt) ns;
              add_row ~workload:(Test.Elt.name elt) ~metric:"host_ns_per_run"
                [ (Some backend, ns) ]
          | Some _ | None ->
              Printf.printf "%-34s (no estimate)\n%!" (Test.Elt.name elt))
        (Test.elements test))
    (bechamel_tests ())

(* ------------------------------------------------------------------ *)
(* The experiment registry: ablations and cross-backend claims         *)

(* Each experiment's legs and rows; whether its claim holds is judged by
   `profile NAME`, not here. *)
let experiments run =
  List.iter
    (fun (e : Experiments.t) ->
      section ("Experiment " ^ e.name);
      Printf.printf "(claim: %s)\n" e.doc;
      List.iter
        (fun l -> print_endline (Experiments.describe e (run l)))
        (Experiments.legs e ~quick);
      List.iter
        (fun (r : Experiments.row) ->
          Printf.printf "row %s/%s/%s = %.10g\n%!" r.workload r.backend
            r.metric r.value;
          add_result ~workload:r.workload ~backend:r.backend ~metric:r.metric
            r.value)
        (e.rows run ~quick))
    Experiments.registry

(* ------------------------------------------------------------------ *)
(* Resilience (availability under the chaos harness)                   *)

let resilience () =
  section "Resilience: availability under deterministic fault injection";
  let requests = if quick then 200 else 500 in
  List.iter
    (fun config ->
      match config with
      | None -> () (* no enclosures to fault in the baseline *)
      | Some _ ->
          let r =
            Scenarios.chaos_http config ~rcfg:(rcfg_of config) ~requests ()
          in
          let backend = Scenarios.config_name config in
          Printf.printf "%-8s chaos http  %s\n" backend
            (Scenarios.pp_chaos_result r);
          add_result ~workload:"resilience_http" ~backend ~metric:"availability"
            r.Scenarios.c_availability;
          add_result ~workload:"resilience_http" ~backend ~metric:"injected"
            (float_of_int r.Scenarios.c_injected);
          add_result ~workload:"resilience_http" ~backend ~metric:"conns_failed"
            (float_of_int r.Scenarios.c_conns_failed))
    configs;
  let r =
    Scenarios.chaos_wiki (Some Lb.Mpk) ~rcfg:(rcfg_of (Some Lb.Mpk))
      ~requests:(if quick then 150 else 400) ()
  in
  Printf.printf "%-8s chaos wiki  %s\n" "LB_MPK" (Scenarios.pp_chaos_result r);
  add_result ~workload:"resilience_wiki" ~backend:"LB_MPK" ~metric:"availability"
    r.Scenarios.c_availability;
  add_result ~workload:"resilience_wiki" ~backend:"LB_MPK" ~metric:"reconnects"
    (float_of_int r.Scenarios.c_reconnects)

(* ------------------------------------------------------------------ *)
(* Attack containment (the scored corpus of lib/attack)                *)

let attacks () =
  section "Attack corpus: severity-weighted containment per backend";
  List.iter
    (fun backend ->
      let results =
        List.map
          (fun (a : Attack.t) ->
            let r = a.Attack.run ~backend ~seed:42 in
            (a, r.Attack.outcome))
          Attack.all
      in
      let score = Attack.containment_score results in
      let contained =
        List.length (List.filter (fun (_, o) -> o.Attack.contained) results)
      in
      Printf.printf "%-8s containment %5.1f/100 (%d/%d attacks contained)\n%!"
        (Backend.name backend) score contained (List.length results);
      add_result ~workload:"attack_containment" ~backend:(Backend.name backend)
        ~metric:"containment_score" score)
    Backend.all

(* ------------------------------------------------------------------ *)
(* Policy mining: witness recorder overhead and mined policy width     *)

module Miner = Encl_litterbox.Miner

let policy_mining run =
  section "Policy mining: witness overhead and mined policy width";
  let mpk ?traced scenario = run (leg ?traced scenario (Some Lb.Mpk)) in
  (* The recorder charges no simulated time, so witnessed req/s must
     match the unwitnessed run; the gate keeps this row near zero. *)
  let off = Experiments.req_per_sec (mpk "http") in
  let on_ = Experiments.req_per_sec (mpk ~traced:true "http") in
  let pct = (off -. on_) /. off *. 100.0 in
  Printf.printf "%-8s http  witness off %8.0f req/s  on %8.0f req/s  (%.2f%%)\n"
    "LB_MPK" off on_ pct;
  add_result ~workload:"policy_mining" ~backend:"LB_MPK"
    ~metric:"witness_overhead_pct" pct;
  (* Mined policy width per scenario: total capabilities granted by the
     least-privilege literals the miner recovers from a witnessed run.
     Any widening of a mined policy shows up here as a higher width. *)
  List.iter
    (fun name ->
      let r = mpk ~traced:true name in
      let mined = Miner.mine (Option.get (Runtime.lb r.Experiments.outcome.rt)) in
      let total =
        List.fold_left (fun acc (m : Miner.mined) -> acc + Miner.width m.policy)
          0 mined
      in
      List.iter
        (fun (m : Miner.mined) ->
          Printf.printf "%-8s %-5s %-12s width %d  %s\n" "LB_MPK" name
            m.Miner.enclosure (Miner.width m.Miner.policy) m.Miner.literal)
        mined;
      add_result ~workload:("policy_mining_" ^ name) ~backend:"LB_MPK"
        ~metric:"policy_width" (float_of_int total))
    [ "http"; "wiki"; "pq" ]

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "Enclosure/LitterBox reproduction benchmarks%s\n"
    (if quick then " (quick mode)" else "");
  table1 ();
  (let run = Experiments.runner () in
   table2 run;
   figure5 run;
   python ();
   security ();
   ablations ();
   experiments run;
   resilience ();
   attacks ();
   policy_mining run);
  run_bechamel ();
  write_results ();
  print_newline ()
