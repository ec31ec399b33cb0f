module Runtime = Encl_golike.Runtime
module Sched = Encl_golike.Sched
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module Backend = Encl_litterbox.Backend
module K = Encl_kernel.Kernel
module Obs = Encl_obs.Obs
module Span = Encl_obs.Span
module Attrib = Encl_obs.Attrib
module Json = Encl_obs.Export.Json

(* ------------------------------------------------------------------ *)
(* Legs                                                                *)

type leg = {
  scenario : string;
  config : Scenarios.config;
  cores : int;
  fastpath : bool option;
  sysring : bool option;
  zerocopy : bool option;
  slow_seccomp : bool;
  requests : int option;
  conns : int option;
  traced : bool;
}

(* The CI size of each scenario; the full size is the scenario's own
   default. *)
let quick_requests = function
  | "http" | "fasthttp" | "zerocopy_http" -> Some 200
  | "wiki" -> Some 120
  | "pq" -> Some 80
  | "smp_http" -> Some 512
  | _ -> None

let leg ?(cores = 1) ?fastpath ?sysring ?zerocopy ?(slow_seccomp = false)
    ?conns ?(traced = false) ~quick scenario config =
  {
    scenario;
    config;
    cores;
    fastpath;
    sysring;
    zerocopy;
    slow_seccomp;
    requests = (if quick then quick_requests scenario else None);
    conns;
    traced;
  }

type result = { leg : leg; outcome : Scenarios.outcome }

let run_leg leg =
  let e =
    match Scenarios.find leg.scenario with
    | Ok e -> e
    | Error msg -> invalid_arg msg
  in
  let base = Scenarios.runtime_config leg.config in
  let costs = base.Runtime.costs in
  let costs =
    if leg.slow_seccomp then
      { costs with Costs.seccomp_fast = costs.Costs.seccomp_eval }
    else costs
  in
  let rcfg = { base with Runtime.cores = leg.cores; costs } in
  let forced with_flag flag f =
    match flag with Some b -> with_flag b f | None -> f ()
  in
  forced Fastpath.with_flag leg.fastpath @@ fun () ->
  forced Sysring.with_flag leg.sysring @@ fun () ->
  forced Zerocopy.with_flag leg.zerocopy @@ fun () ->
  Obs.with_tracing ~obs:leg.traced ~witness:leg.traced @@ fun () ->
  {
    leg;
    outcome =
      e.run leg.config ~rcfg ?requests:leg.requests ?conns:leg.conns ();
  }

(* A flag the leg leaves alone is resolved to the process setting, so a
   leg that forces a flag to its current value and one that leaves it
   alone are the same run. *)
let resolve leg =
  let current flag enabled = Some (Option.value flag ~default:enabled) in
  {
    leg with
    fastpath = current leg.fastpath (Fastpath.enabled ());
    sysring = current leg.sysring (Sysring.enabled ());
    zerocopy = current leg.zerocopy (Zerocopy.enabled ());
  }

let runner () =
  let memo = Hashtbl.create 64 in
  fun leg ->
    let leg = resolve leg in
    match Hashtbl.find_opt memo leg with
    | Some r -> r
    | None ->
        let r = run_leg leg in
        Hashtbl.add memo leg r;
        r

(* ------------------------------------------------------------------ *)
(* What a leg measured                                                 *)

let machine r = Runtime.machine r.outcome.rt
let kernel r = (machine r).Machine.kernel
let lb_count f r = Option.fold ~none:0 ~some:f (Runtime.lb r.outcome.rt)
let req_per_sec r = Option.value r.outcome.req_per_sec ~default:0.0
let faults = lb_count Lb.fault_count
let vm_exits = lb_count Lb.vmexit_count

let syscalls r = Scenarios.workload_syscalls r.outcome.rt

let spent r category = Clock.spent (machine r).Machine.clock category

let ring_batch_avg r =
  let batches = K.ring_batches_count (kernel r) in
  if batches = 0 then 0.0
  else float_of_int (K.ring_drained_count (kernel r)) /. float_of_int batches

let bytes_copied r = K.bytes_copied_count (kernel r) + (machine r).Machine.bytes_copied

let share part total =
  if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

(* Attribution-ledger figures: zero unless the leg ran traced. *)
let attributed r categories =
  let a = Obs.attribution (machine r).Machine.obs in
  List.fold_left
    (fun acc c -> acc + Attrib.category_total a (Span.category_name c))
    0 categories

let attributed_share r categories =
  share (attributed r categories)
    (Attrib.elapsed (Obs.attribution (machine r).Machine.obs))

let switch_share r = attributed_share r [ Span.Prolog; Span.Epilog ]

let enforcement_share r =
  attributed_share r [ Span.Prolog; Span.Epilog; Span.Seccomp ]

let mean_span r c =
  let n = Span.close_count (Obs.spans (machine r).Machine.obs) c in
  if n = 0 then 0.0 else float_of_int (attributed r [ c ]) /. float_of_int n

let metrics r =
  let f = float_of_int in
  let hits, _ = K.seccomp_cache_stats (kernel r) in
  let sched = Runtime.sched r.outcome.rt in
  let clock = (machine r).Machine.clock in
  List.concat
    [
      (match r.outcome.req_per_sec with
      | Some v -> [ ("req_per_sec", v) ]
      | None -> []);
      (match r.outcome.ns_per_op with
      | Some v -> [ ("ns_per_op", f v) ]
      | None -> []);
      [
        ("faults", f (faults r));
        ("syscalls", f (syscalls r));
        ("switches", f (lb_count Lb.switch_count r));
        ("elided", f (lb_count Lb.switch_elided_count r));
        ("seccomp_cache_hits", f hits);
        ("vm_exits", f (vm_exits r));
        ("ring_batch_avg", ring_batch_avg r);
        ("bytes_copied", f (bytes_copied r));
        ("switch_ns", f (spent r Clock.Switch));
        ("access_ns", f (spent r Clock.Access));
        ("cpu_ns", f (Clock.now clock));
        ("wall_ns", f (Clock.wall clock));
        ("steals", f (Sched.steal_count sched));
        ("affinity_hits", f (Sched.affinity_hit_count sched));
        ("sched_switches", f (Sched.switch_count sched));
      ];
      (if Obs.enabled (machine r).Machine.obs then
         [
           ("switch_share", switch_share r);
           ("enforcement_share", enforcement_share r);
           ("prolog_ns", mean_span r Span.Prolog);
           ("epilog_ns", mean_span r Span.Epilog);
         ]
       else []);
    ]

(* The scenario and backend, then every flag the leg turned off: a leg
   with no flag named ran the shipped configuration. *)
let label r =
  let l = r.leg in
  let off name = function Some false -> [ name ^ "=off" ] | _ -> [] in
  String.concat " "
    (List.concat
       [
         [ l.scenario; Scenarios.config_name l.config ];
         (if l.cores = 1 then [] else [ Printf.sprintf "cores=%d" l.cores ]);
         off "fastpath" l.fastpath;
         off "sysring" l.sysring;
         off "zerocopy" l.zerocopy;
         (if l.slow_seccomp then [ "slow-seccomp" ] else []);
       ])

let pp_value v =
  if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.3f" v

(* ------------------------------------------------------------------ *)
(* Claims                                                              *)

type pair = { on : leg; off : leg; judge : result -> result -> string list }

type row = { workload : string; backend : string; metric : string; value : float }

type t = {
  name : string;
  doc : string;
  shows : string list;
  pairs : quick:bool -> pair list;
  rows : (leg -> result) -> quick:bool -> row list;
  artifact : string option;
}

let describe e r =
  Printf.sprintf "%-32s %s" (label r)
    (String.concat "  "
       (List.filter_map
          (fun (k, v) ->
            if List.mem k e.shows then Some (k ^ " " ^ pp_value v) else None)
          (metrics r)))

let legs e ~quick =
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc l -> if List.mem l acc then acc else acc @ [ l ])
        acc
        [ resolve p.off; resolve p.on ])
    [] (e.pairs ~quick)

let problems e run ~quick =
  List.concat_map (fun p -> p.judge (run p.on) (run p.off)) (e.pairs ~quick)

let artifact e results =
  let row r =
    ("leg", Json.String (label r))
    :: ("cores", Json.Int r.leg.cores)
    :: List.map (fun (k, v) -> (k, Json.Float v)) (metrics r)
  in
  Json.Obj
    [
      ("experiment", Json.String e.name);
      ("rows", Json.List (List.map (fun r -> Json.Obj (row r)) results));
    ]

let fail_if cond fmt =
  Printf.ksprintf (fun msg -> if cond then [ msg ] else []) fmt

let differ what f a b =
  fail_if (f a <> f b) "%s diverged (%s: %d, %s: %d)" what (label a) (f a)
    (label b) (f b)

let same_enforcement a b =
  differ "fault counts" faults a b @ differ "workload syscall counts" syscalls a b

(* The attribution ledger must account for exactly the elapsed clock. *)
let conserved r =
  let obs = (machine r).Machine.obs in
  let a = Obs.attribution obs in
  fail_if
    (not (Obs.enabled obs && Attrib.conserved a))
    "%s: attribution lost nanoseconds (%d of %d attributed)" (label r)
    (Attrib.total a) (Attrib.elapsed a)

let rows workload r values =
  List.map
    (fun (metric, value) ->
      { workload; backend = Scenarios.config_name r.leg.config; metric; value })
    values

let configs = None :: List.map Option.some Backend.all
let pair on off judge = { on; off; judge }

(* An experiment that emits no rows and writes no artifact. *)
let claim name doc shows pairs =
  { name; doc; shows; pairs; rows = (fun _ ~quick:_ -> []); artifact = None }

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)

let overhead =
  claim "overhead"
    "on http, LB_VTX spends a strictly larger share of wall time in \
     switches than LB_MPK (the paper's Table 1 ordering), and both runs \
     attribute every nanosecond"
    [ "req_per_sec"; "switch_share"; "prolog_ns"; "epilog_ns" ]
    (fun ~quick ->
      [
        pair (leg ~quick "http" (Some Lb.Vtx)) (leg ~quick "http" (Some Lb.Mpk))
          (fun vtx mpk ->
            conserved vtx @ conserved mpk
            @ fail_if
                (switch_share vtx <= switch_share mpk)
                "VT-x switch share (%.2f%%) not above MPK's (%.2f%%)"
                (switch_share vtx) (switch_share mpk));
      ])

let fastpath =
  let http ~quick flag b = leg ~quick ~fastpath:flag "http" (Some b) in
  {
    (claim "fastpath"
       "on http, switch elision and the seccomp verdict cache make switches \
        plus seccomp a strictly smaller share of wall time on LB_MPK and \
        LB_VTX, at equal fault and workload-syscall counts"
       [ "req_per_sec"; "enforcement_share"; "elided"; "seccomp_cache_hits"; "faults" ]
       (fun ~quick ->
         List.map
           (fun b ->
             pair (http ~quick true b) (http ~quick false b) (fun on off ->
                 conserved on @ conserved off @ same_enforcement on off
                 @ fail_if
                     (enforcement_share on >= enforcement_share off)
                     "%s: switch+seccomp share did not shrink (on %.2f%%, off \
                      %.2f%%)"
                     (label on) (enforcement_share on) (enforcement_share off)))
           [ Lb.Mpk; Lb.Vtx ]))
    with
    rows =
      (fun run ~quick ->
        List.concat_map
          (fun b ->
            let r = run (http ~quick true b) in
            rows "switch_elision_http" r
              [
                ("req_per_sec", req_per_sec r);
                ("elided_switches", float_of_int (lb_count Lb.switch_elided_count r));
              ]
            @
            if b = Lb.Mpk then
              rows "seccomp_cache_hit_rate" r
                [ ("hit_rate", K.seccomp_cache_hit_rate (kernel r)) ]
            else [])
          Backend.all);
  }

(* The ring check, then the fairness of the baseline: under the shipped
   flags no enclosed backend may out-serve the unprotected Baseline on
   any server scenario, so no Table 2 slowdown falls below 1.0x. *)
let sysring =
  let http ~quick flag c = leg ~quick ~sysring:flag "http" c in
  let gain on off =
    Printf.sprintf "on %.0f, off %.0f, %+.1f%%" (req_per_sec on)
      (req_per_sec off)
      (100.0 *. ((req_per_sec on /. req_per_sec off) -. 1.0))
  in
  let ring on off =
    let k = kernel on in
    same_enforcement on off
    @ fail_if (K.ring_pending k <> 0) "%s: %d entries never drained" (label on)
        (K.ring_pending k)
    @ fail_if
        (K.ring_drained_count k = 0 || ring_batch_avg on <= 1.0)
        "%s: ring did not batch (%d entries, avg %.2f)" (label on)
        (K.ring_drained_count k) (ring_batch_avg on)
    @
    match on.leg.config with
    | Some Lb.Vtx ->
        fail_if
          (vm_exits on >= vm_exits off)
          "%s: VM EXITs did not shrink (on %d, off %d)" (label on)
          (vm_exits on) (vm_exits off)
        @ fail_if
            (req_per_sec on < 1.15 *. req_per_sec off)
            "%s: req/s gain below 15%% (%s)" (label on) (gain on off)
    | None ->
        fail_if
          (req_per_sec on <= req_per_sec off)
          "%s: the unprotected program gained nothing (%s)" (label on)
          (gain on off)
    | Some (Lb.Mpk | Lb.Lwc | Lb.Sfi) ->
        fail_if
          (req_per_sec on < req_per_sec off)
          "%s: the ring made it slower (%s)" (label on) (gain on off)
  in
  let fair base enclosed =
    fail_if
      (req_per_sec enclosed > req_per_sec base)
      "%s outruns the Baseline (%.0f > %.0f req/s)" (label enclosed)
      (req_per_sec enclosed) (req_per_sec base)
  in
  {
    (claim "sysring"
       "on http, the syscall ring makes LB_VTX serve >= 15% more req/s with \
        strictly fewer VM EXITs, makes the Baseline strictly faster and \
        LB_MPK no slower, at equal fault and workload-syscall counts; and \
        under the shipped flags the Baseline out-serves every backend on \
        http, fasthttp, wiki and zerocopy_http"
       [ "req_per_sec"; "vm_exits"; "ring_batch_avg"; "syscalls"; "faults" ]
       (fun ~quick ->
         List.map
           (fun c -> pair (http ~quick true c) (http ~quick false c) ring)
           [ None; Some Lb.Mpk; Some Lb.Vtx ]
         @ List.concat_map
             (fun scenario ->
               List.map
                 (fun b ->
                   pair (leg ~quick scenario None) (leg ~quick scenario (Some b)) fair)
                 Backend.all)
             [ "http"; "fasthttp"; "wiki"; "zerocopy_http" ]))
    with
    rows =
      (fun run ~quick ->
        List.concat_map
          (fun b ->
            let r = run (http ~quick true (Some b)) in
            rows "sysring_http" r
              [
                ("req_per_sec", req_per_sec r);
                ("vm_exits", float_of_int (vm_exits r));
                ("batch_avg", ring_batch_avg r);
              ])
          Backend.all);
  }

let zerocopy =
  let zc ~quick flag c = leg ~quick ~zerocopy:flag "zerocopy_http" c in
  let judge on off =
    let rx r = K.rxring_counters (kernel r) in
    let granted, consumed, reclaimed = rx on in
    same_enforcement on off
    @ fail_if (rx on <> rx off)
        "%s: rx-ring descriptor counters diverged across the flag" (label on)
    @ fail_if
        (granted <> consumed + reclaimed)
        "%s: rx-ring descriptors leaked (%d granted, %d consumed, %d \
         reclaimed)"
        (label on) granted consumed reclaimed
    @ fail_if
        (bytes_copied on >= bytes_copied off)
        "%s: bytes copied did not shrink (on %d, off %d)" (label on)
        (bytes_copied on) (bytes_copied off)
    @ fail_if
        (req_per_sec on < 1.10 *. req_per_sec off)
        "%s: req/s gain below 10%% (on %.0f, off %.0f)" (label on)
        (req_per_sec on) (req_per_sec off)
  in
  {
    (claim "zerocopy"
       "on zerocopy_http, the zero-copy data plane makes every backend serve \
        >= 10% more req/s with strictly fewer bytes copied, at equal fault, \
        workload-syscall and rx-ring descriptor counts"
       [ "req_per_sec"; "bytes_copied"; "syscalls"; "faults" ]
       (fun ~quick ->
         List.map
           (fun b -> pair (zc ~quick true (Some b)) (zc ~quick false (Some b)) judge)
           Backend.all))
    with
    rows =
      (fun run ~quick ->
        List.concat_map
          (fun c ->
            let r = run (zc ~quick true c) in
            rows "zerocopy_http" r
              [
                ("req_per_sec", req_per_sec r);
                ("bytes_copied", float_of_int (bytes_copied r));
              ])
          configs);
  }

let crossover =
  claim "crossover"
    "LB_SFI spends strictly fewer switch-category ns than LB_VTX on the \
     switch-heavy http, and strictly more access-category ns than LB_MPK on \
     the access-heavy bild, at equal fault and workload-syscall counts"
    [ "switch_ns"; "access_ns"; "faults"; "syscalls" ]
    (fun ~quick ->
      [
        pair (leg ~quick "http" (Some Lb.Sfi)) (leg ~quick "http" (Some Lb.Vtx))
          (fun sfi vtx ->
            same_enforcement sfi vtx
            @ fail_if
                (spent sfi Clock.Switch >= spent vtx Clock.Switch)
                "http: SFI switch ns (%d) not strictly below VTX (%d)"
                (spent sfi Clock.Switch) (spent vtx Clock.Switch));
        pair (leg ~quick "bild" (Some Lb.Mpk)) (leg ~quick "bild" (Some Lb.Sfi))
          (fun mpk sfi ->
            same_enforcement mpk sfi
            @ fail_if
                (spent mpk Clock.Access >= spent sfi Clock.Access)
                "bild: SFI access ns (%d) not strictly above MPK (%d)"
                (spent sfi Clock.Access) (spent mpk Clock.Access));
      ])

(* req/s of smp_http is measured against the makespan (the slowest
   core's lane); the wiki and pq rows spread the per-connection serving
   fibers and the query workers by work stealing. *)
let smp =
  let core_counts = [ 1; 2; 4; 8; 16 ] in
  let smp_http ~quick cores =
    leg ~quick ~cores ?conns:(if quick then Some 32 else None) "smp_http"
      (Some Lb.Mpk)
  in
  {
    (claim "smp"
       "smp_http on LB_MPK at 4 simulated cores serves >= 2.5x the 1-core \
        req/s (makespan), and every core count from 2 to 16 keeps the 1-core \
        fault and workload-syscall counts"
       [ "req_per_sec"; "wall_ns"; "steals"; "faults"; "syscalls" ]
       (fun ~quick ->
         List.map
           (fun cores ->
             pair (smp_http ~quick cores) (smp_http ~quick 1) (fun many one ->
                 let speedup = req_per_sec many /. req_per_sec one in
                 same_enforcement many one
                 @ fail_if
                     (many.leg.cores = 4 && speedup < 2.5)
                     "4-core speedup %.2fx below 2.50x (1 core %.0f req/s, 4 \
                      cores %.0f req/s)"
                     speedup (req_per_sec one) (req_per_sec many)))
           (List.tl core_counts)))
    with
    rows =
      (fun run ~quick ->
        let smp cores = run (smp_http ~quick cores) in
        let wiki = run (leg ~quick ~cores:4 "wiki" (Some Lb.Mpk)) in
        let pq = run (leg ~quick ~cores:4 ~conns:4 "pq" (Some Lb.Mpk)) in
        List.concat_map
          (fun cores ->
            let r = smp cores in
            let sched = Runtime.sched r.outcome.rt in
            let hits = Sched.affinity_hit_count sched in
            rows (Printf.sprintf "smp_http_%dcore" cores) r
              [
                ("req_per_sec", req_per_sec r);
                ("steal_count", float_of_int (Sched.steal_count sched));
                ( "affinity_hit_rate",
                  float_of_int hits
                  /. float_of_int (max 1 (hits + Sched.switch_count sched)) );
              ])
          core_counts
        @ rows "smp_http" (smp 4)
            [ ("scaling_efficiency", req_per_sec (smp 4) /. req_per_sec (smp 1) /. 4.0) ]
        @ rows "smp_wiki_4core" wiki [ ("req_per_sec", req_per_sec wiki) ]
        @ rows "smp_pq_4core" pq
            [ ("query_ns", float_of_int (Option.value pq.outcome.ns_per_op ~default:0)) ]);
    artifact = Some "SMP_scaling.json";
  }

(* The seccomp trusted-PKRU fast path: a filter walk of at most four
   steps costs seccomp_fast instead of seccomp_eval. The verdict cache
   would skip nearly every walk, so both legs run with the fast paths
   off; only the price of a short walk differs between them. *)
let seccomp =
  let http ~quick slow_seccomp =
    leg ~quick ~fastpath:false ~slow_seccomp "http" (Some Lb.Mpk)
  in
  claim "seccomp"
    "on http under LB_MPK with the fast paths off, the seccomp trusted-PKRU \
     fast path serves strictly more req/s than charging every filter walk in \
     full, at equal fault and workload-syscall counts"
    [ "req_per_sec"; "faults"; "syscalls" ]
    (fun ~quick ->
      [
        pair (http ~quick false) (http ~quick true) (fun fast slow ->
            same_enforcement fast slow
            @ fail_if
                (req_per_sec fast <= req_per_sec slow)
                "the seccomp fast path measured no gain (on %.0f, off %.0f \
                 req/s)"
                (req_per_sec fast) (req_per_sec slow));
      ])

let registry = [ overhead; fastpath; sysring; zerocopy; crossover; smp; seccomp ]
