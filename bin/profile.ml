(* profile: causal-span profiler for the simulated machine.

   Runs a named scenario with observability enabled and answers "where
   did every simulated nanosecond go?" — the attribution ledger charges
   each clock tick to the innermost open span's (enclosure x category)
   cell, so the breakdown is exact (conservation is checked, not
   assumed) and byte-identical across runs.

   Usage:
     dune exec bin/profile.exe -- http --backend mpk
     dune exec bin/profile.exe -- wiki --backend vtx --top 20
     dune exec bin/profile.exe -- overhead            # MPK vs VT-x shares
     dune exec bin/profile.exe -- fastpath            # fast path on vs off
     dune exec bin/profile.exe -- gate                # bench regression gate
     dune exec bin/profile.exe -- gate --write-baseline

   Scenario runs write flamegraph.folded (collapsed stacks, feed to
   flamegraph.pl) and profile.speedscope.json (load at speedscope.app)
   into --out-dir. *)

module Runtime = Encl_golike.Runtime
module Machine = Encl_litterbox.Machine
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel
module Sysno = Encl_kernel.Sysno
module Scenarios = Encl_apps.Scenarios
module Obs = Encl_obs.Obs
module Span = Encl_obs.Span
module Attrib = Encl_obs.Attrib
module Export = Encl_obs.Export
module Gate = Encl_obs.Gate
open Cmdliner

(* An unwritable output path (say, a missing --out-dir) ends the run
   with a message and exit status 1, not an uncaught exception. *)
let write_file path contents =
  match
    Out_channel.with_open_text path (fun oc -> output_string oc contents)
  with
  | () -> ()
  | exception Sys_error e ->
      prerr_endline ("profile: cannot write " ^ e);
      exit 1

let run_scenario name backend requests =
  Obs.default_enabled := true;
  Scenarios.run_named name backend ?requests ()

(* Exit non-zero if any simulated nanosecond went missing: the ledger
   must account for exactly the elapsed clock. *)
let conservation_problems obs =
  let a = Obs.attribution obs in
  if Attrib.conserved a then []
  else
    [
      Printf.sprintf "conservation violated: attributed %dns of %dns elapsed"
        (Attrib.total a) (Attrib.elapsed a);
    ]

let span_drop_warning obs =
  let spans = Obs.spans obs in
  if Span.dropped spans > 0 then
    Printf.eprintf
      "profile: warning: span ring overflowed, %d of %d spans evicted \
       (attribution and close counts remain exact)\n"
      (Span.dropped spans) (Span.total spans)

(* ------------------------------------------------------------------ *)
(* Scenario subcommands *)

let run name backend requests out_dir top =
  match run_scenario name backend requests with
  | Error e ->
      prerr_endline ("profile: " ^ e);
      1
  | Ok (rt, result_line) -> (
      let obs = (Runtime.machine rt).Machine.obs in
      Printf.printf "%s under %s: %s\n" name
        (Scenarios.config_name backend)
        result_line;
      print_string (Export.attrib_table ~top obs);
      (match Runtime.lb rt with
      | Some lb when Fastpath.enabled () ->
          let hits, misses =
            K.seccomp_cache_stats (Runtime.machine rt).Machine.kernel
          in
          Printf.printf
            "fast path: %d/%d switches elided, %d/%d transfers coalesced, \
             seccomp cache %d/%d hits\n"
            (Lb.switch_elided_count lb) (Lb.switch_count lb)
            (Lb.transfer_coalesced_count lb)
            (Lb.transfer_count lb) hits (hits + misses)
      | Some _ | None -> ());
      let folded_path = Filename.concat out_dir "flamegraph.folded" in
      let speedscope_path =
        Filename.concat out_dir "profile.speedscope.json"
      in
      write_file folded_path (Export.flamegraph_folded obs);
      write_file speedscope_path (Export.speedscope_json obs);
      let spans = Obs.spans obs in
      Printf.printf "%d spans (%d dropped from ring) -> %s, %s\n"
        (Span.total spans) (Span.dropped spans) folded_path speedscope_path;
      span_drop_warning obs;
      match conservation_problems obs with
      | [] -> 0
      | problems ->
          List.iter (fun p -> prerr_endline ("profile: " ^ p)) problems;
          1)

(* ------------------------------------------------------------------ *)
(* overhead: MPK vs VT-x switch shares on the same workload *)

type breakdown = {
  b_name : string;
  elapsed : int;
  switch_ns : int;  (** prolog + epilog cells *)
  seccomp_ns : int;  (** BPF filter evaluation alone *)
  syscall_ns : int;  (** trap + service + hypercall round-trips *)
  user_ns : int;
  mean_prolog : float;
  mean_epilog : float;
  conserved : bool;
}

let breakdown_of name obs =
  let a = Obs.attribution obs in
  let spans = Obs.spans obs in
  let cat c = Attrib.category_total a (Span.category_name c) in
  let mean c =
    let n = Span.close_count spans c in
    if n = 0 then 0.0 else float_of_int (cat c) /. float_of_int n
  in
  {
    b_name = name;
    elapsed = Attrib.elapsed a;
    switch_ns = cat Span.Prolog + cat Span.Epilog;
    seccomp_ns = cat Span.Seccomp;
    syscall_ns = cat Span.Syscall + cat Span.Seccomp;
    user_ns = Attrib.category_total a "user";
    mean_prolog = mean Span.Prolog;
    mean_epilog = mean Span.Epilog;
    conserved = Attrib.conserved a;
  }

let share part total =
  if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

(* The paper's Table 1 one-way enclosure call costs (ns): the simulated
   switch pair should keep VT-x an order of magnitude above MPK. *)
let paper_call_mpk = 86.0
let paper_call_vtx = 924.0

let overhead scenario requests =
  let run_one backend =
    match run_scenario scenario (Some backend) requests with
    | Error e -> Error e
    | Ok (rt, result_line) ->
        let obs = (Runtime.machine rt).Machine.obs in
        let name = Scenarios.config_name (Some backend) in
        Printf.printf "%s under %s: %s\n" scenario name result_line;
        Ok (breakdown_of name obs)
  in
  match (run_one Lb.Mpk, run_one Lb.Vtx) with
  | Error e, _ | _, Error e ->
      prerr_endline ("profile: " ^ e);
      1
  | Ok mpk, Ok vtx ->
      Printf.printf "\n%s wall-time breakdown (simulated ns)\n" scenario;
      Printf.printf "%-8s %12s %18s %18s %18s %10s %10s\n" "backend" "elapsed"
        "switch" "syscall" "user" "prolog/op" "epilog/op";
      List.iter
        (fun b ->
          Printf.printf "%-8s %12d %11d %5.1f%% %11d %5.1f%% %11d %5.1f%% %10.1f %10.1f\n"
            b.b_name b.elapsed b.switch_ns
            (share b.switch_ns b.elapsed)
            b.syscall_ns
            (share b.syscall_ns b.elapsed)
            b.user_ns
            (share b.user_ns b.elapsed)
            b.mean_prolog b.mean_epilog)
        [ mpk; vtx ];
      let mpk_share = share mpk.switch_ns mpk.elapsed in
      let vtx_share = share vtx.switch_ns vtx.elapsed in
      let pair_ratio =
        if mpk.mean_prolog +. mpk.mean_epilog > 0.0 then
          (vtx.mean_prolog +. vtx.mean_epilog)
          /. (mpk.mean_prolog +. mpk.mean_epilog)
        else 0.0
      in
      Printf.printf
        "switch share: MPK %.2f%%, VT-x %.2f%%; per-pair cost ratio %.1fx \
         (paper Table 1 call ratio %.1fx)\n"
        mpk_share vtx_share pair_ratio (paper_call_vtx /. paper_call_mpk);
      let problems =
        List.concat
          [
            (if not mpk.conserved then [ "MPK run lost nanoseconds" ] else []);
            (if not vtx.conserved then [ "VT-x run lost nanoseconds" ] else []);
            (if vtx_share <= mpk_share then
               [
                 Printf.sprintf
                   "VT-x switch share (%.2f%%) not above MPK (%.2f%%) — \
                    contradicts paper Table 1"
                   vtx_share mpk_share;
               ]
             else []);
          ]
      in
      if problems = [] then begin
        print_endline "overhead: consistent with paper Table 1 ordering";
        0
      end
      else begin
        List.iter (fun p -> prerr_endline ("profile: " ^ p)) problems;
        1
      end

(* ------------------------------------------------------------------ *)
(* fastpath: enforcement share with the fast path on vs off *)

(* The fast path's acceptance check: on the same workload, switch +
   seccomp must take a strictly smaller share of wall time with
   ENCL_FASTPATH on than off, on both isolation backends — while the
   enforcement outcome (fault count) stays identical. *)
let fastpath scenario requests =
  let enf b = b.switch_ns + b.seccomp_ns in
  let run_one backend flag =
    Fastpath.with_flag flag @@ fun () ->
    match run_scenario scenario (Some backend) requests with
    | Error e -> Error e
    | Ok (rt, _) ->
        let obs = (Runtime.machine rt).Machine.obs in
        let name = Scenarios.config_name (Some backend) in
        let lb = Option.get (Runtime.lb rt) in
        let hits, misses =
          K.seccomp_cache_stats (Runtime.machine rt).Machine.kernel
        in
        Ok
          ( breakdown_of name obs,
            Lb.switch_elided_count lb,
            Lb.fault_count lb,
            (hits, misses) )
  in
  let check backend =
    match (run_one backend true, run_one backend false) with
    | Error e, _ | _, Error e -> Error e
    | Ok (on, elided, faults_on, (hits, misses)), Ok (off, _, faults_off, _)
      ->
        let share_on = share (enf on) on.elapsed in
        let share_off = share (enf off) off.elapsed in
        let hit_rate =
          if hits + misses = 0 then 0.0
          else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
        in
        Printf.printf
          "%-8s on:  elapsed %12d  switch+seccomp %10d (%5.2f%%)  elided %d  \
           cache %d/%d (%.1f%% hits)\n"
          on.b_name on.elapsed (enf on) share_on elided hits (hits + misses)
          hit_rate;
        Printf.printf
          "%-8s off: elapsed %12d  switch+seccomp %10d (%5.2f%%)\n" off.b_name
          off.elapsed (enf off) share_off;
        let fail msg = Error (Printf.sprintf "%s: %s" on.b_name msg) in
        if not (on.conserved && off.conserved) then
          fail "a run lost nanoseconds"
        else if faults_on <> faults_off then
          fail
            (Printf.sprintf "fault counts diverged (on %d, off %d)" faults_on
               faults_off)
        else if share_on >= share_off then
          fail
            (Printf.sprintf
               "switch+seccomp share did not shrink (on %.2f%%, off %.2f%%)"
               share_on share_off)
        else Ok ()
  in
  Printf.printf "fast-path check on %s (%s requests)\n" scenario
    (match requests with Some n -> string_of_int n | None -> "default");
  match (check Lb.Mpk, check Lb.Vtx) with
  | Ok (), Ok () ->
      print_endline
        "fastpath: switch+seccomp share strictly smaller on both backends";
      0
  | (Error e, _ | _, Error e) ->
      prerr_endline ("profile: fastpath: " ^ e);
      1

(* ------------------------------------------------------------------ *)
(* sysring: one exit per batch instead of one per call *)

(* The ring's acceptance check. On the same workload, with
   ENCL_SYSRING on, the VTX backend must serve >= 15% more requests per
   second with strictly fewer VM EXITs, while the kernel executes the
   same number of system calls and enforcement records the same number
   of faults. MPK has no VM EXITs to shed but still amortizes the trap
   cost, so it must not get slower. The ring is the kernel's, so the
   unprotected Baseline batches too and must gain.

   "Same number of system calls" is over the workload's calls — the
   memory-management family (mmap, pkey_mprotect) is excluded, because
   allocator span growth and GC timing legitimately move with fiber
   interleaving and the ring never carries those calls.

   A second half checks the baseline is fair: with the shipped flags,
   no enclosed backend may outrun the unprotected Baseline on any
   server scenario, so no Table 2 slowdown can fall below 1.0x. *)

let workload_syscalls kernel =
  List.fold_left
    (fun acc (nr, n) ->
      if Sysno.category nr = Sysno.Cat_mem then acc else acc + n)
    0 (K.trace kernel)

type ring_run = {
  r_name : string;
  r_rps : float;
  r_vmexits : int;
  r_syscalls : int;
  r_faults : int;
  r_batches : int;
  r_drained : int;
  r_pending : int;
}

let sysring_run scenario config requests flag =
  Sysring.with_flag flag @@ fun () ->
  let run =
    match scenario with
    | "http" -> Ok (Scenarios.http_rt config ?requests ())
    | "fasthttp" -> Ok (Scenarios.fasthttp_rt config ?requests ())
    | "wiki" -> Ok (Scenarios.wiki_rt config ?requests ())
    | s -> Error ("sysring: unsupported scenario " ^ s)
  in
  match run with
  | Error e -> Error e
  | Ok (rt, r) ->
      let lb_count f = Option.fold ~none:0 ~some:f (Runtime.lb rt) in
      let kernel = (Runtime.machine rt).Machine.kernel in
      Ok
        {
          r_name = Scenarios.config_name config;
          r_rps = r.Scenarios.h_req_per_sec;
          r_vmexits = lb_count Lb.vmexit_count;
          r_syscalls = workload_syscalls kernel;
          r_faults = lb_count Lb.fault_count;
          r_batches = K.ring_batches_count kernel;
          r_drained = K.ring_drained_count kernel;
          r_pending = K.ring_pending kernel;
        }

let sysring_check scenario requests config =
  match
    ( sysring_run scenario config requests true,
      sysring_run scenario config requests false )
  with
  | Error e, _ | _, Error e -> Error e
  | Ok on, Ok off ->
      let batch_avg =
        if on.r_batches = 0 then 0.0
        else float_of_int on.r_drained /. float_of_int on.r_batches
      in
      Printf.printf
        "%-8s on:  %8.0f req/s  vm_exits %6d  syscalls %6d  faults %d  \
         (%d entries in %d batches, avg %.1f)\n"
        on.r_name on.r_rps on.r_vmexits on.r_syscalls on.r_faults
        on.r_drained on.r_batches batch_avg;
      Printf.printf
        "%-8s off: %8.0f req/s  vm_exits %6d  syscalls %6d  faults %d\n"
        off.r_name off.r_rps off.r_vmexits off.r_syscalls off.r_faults;
      let fail msg = Error (Printf.sprintf "%s: %s" on.r_name msg) in
      let gain () =
        Printf.sprintf "on %.0f, off %.0f, %+.1f%%" on.r_rps off.r_rps
          (100.0 *. ((on.r_rps /. off.r_rps) -. 1.0))
      in
      if on.r_syscalls <> off.r_syscalls then
        fail
          (Printf.sprintf "kernel syscall counts diverged (on %d, off %d)"
             on.r_syscalls off.r_syscalls)
      else if on.r_faults <> off.r_faults then
        fail
          (Printf.sprintf "fault counts diverged (on %d, off %d)" on.r_faults
             off.r_faults)
      else if on.r_pending <> 0 then
        fail (Printf.sprintf "%d entries never drained" on.r_pending)
      else if on.r_drained = 0 || batch_avg <= 1.0 then
        fail
          (Printf.sprintf "ring did not batch (%d entries, avg %.2f)"
             on.r_drained batch_avg)
      else
        match config with
        | Some Lb.Vtx ->
            if on.r_vmexits >= off.r_vmexits then
              fail
                (Printf.sprintf "VM EXITs did not shrink (on %d, off %d)"
                   on.r_vmexits off.r_vmexits)
            else if on.r_rps < 1.15 *. off.r_rps then
              fail ("req/s gain below 15% (" ^ gain () ^ ")")
            else Ok ()
        | None ->
            if on.r_rps <= off.r_rps then
              fail ("the unprotected program gained nothing (" ^ gain () ^ ")")
            else Ok ()
        | Some (Lb.Mpk | Lb.Lwc | Lb.Sfi) ->
            if on.r_rps < off.r_rps then
              fail ("the ring made it slower (" ^ gain () ^ ")")
            else Ok ()

(* Table 2 fairness under the shipped flags: the Baseline's req/s
   against every backend's, per server scenario. *)
let fairness_scenarios = [ "http"; "fasthttp"; "wiki"; "zerocopy_http" ]

let fair_baseline requests =
  let rps scenario config =
    match scenario with
    | "http" -> (Scenarios.http config ?requests ()).Scenarios.h_req_per_sec
    | "fasthttp" ->
        (Scenarios.fasthttp config ?requests ()).Scenarios.h_req_per_sec
    | "wiki" -> (Scenarios.wiki config ?requests ()).Scenarios.h_req_per_sec
    | _ ->
        (Scenarios.zerocopy_http config ?requests ()).Scenarios.z_req_per_sec
  in
  List.concat_map
    (fun scenario ->
      let base = rps scenario None in
      let enclosed =
        List.map
          (fun b -> (Lb.backend_name b, rps scenario (Some b)))
          Encl_litterbox.Backend.all
      in
      Printf.printf "fairness %-14s Baseline %6.0f req/s, slowdowns%s\n"
        scenario base
        (String.concat ""
           (List.map
              (fun (name, v) -> Printf.sprintf "  %s %.3fx" name (base /. v))
              enclosed));
      List.filter_map
        (fun (name, v) ->
          if v > base then
            Some
              (Printf.sprintf "%s: %s outruns the Baseline (%.0f > %.0f req/s)"
                 scenario name v base)
          else None)
        enclosed)
    fairness_scenarios

let sysring scenario requests =
  Printf.printf "sysring check on %s (%s requests)\n" scenario
    (match requests with Some n -> string_of_int n | None -> "default");
  let ring_errors =
    List.filter_map
      (fun config ->
        match sysring_check scenario requests config with
        | Ok () -> None
        | Error e -> Some e)
      [ None; Some Lb.Mpk; Some Lb.Vtx ]
  in
  let errors = ring_errors @ fair_baseline requests in
  match errors with
  | [] ->
      print_endline
        "sysring: VTX sheds >=15% of its wall time and every VM EXIT it can, \
         the Baseline batches too and stays the fastest; enforcement \
         identical";
      0
  | _ :: _ ->
      List.iter (fun e -> prerr_endline ("profile: sysring: " ^ e)) errors;
      1

(* ------------------------------------------------------------------ *)
(* zerocopy: the zero-copy data plane pays for itself *)

(* Acceptance (the zero-copy issue): with ENCL_ZEROCOPY on, the
   zerocopy_http scenario (fasthttp in zc serving mode: requests read in
   place from the rx view ring, bodies spliced with sendfile) must serve
   >= 10% more requests per second than the identical run with the flag
   off, with strictly fewer ledger bytes copied — while the kernel
   executes the same system calls, enforcement records the same faults,
   and the rx ring grants/consumes/reclaims the same descriptors. The
   flag gates cost accounting only; any enforcement divergence is a bug
   this check (and the ci.sh byte-diff) exists to catch. *)

type zc_run = {
  z_name : string;
  z_rps : float;
  z_bytes : int;
  z_syscalls : int;
  z_faults : int;
  z_ring : int * int * int;
}

let zerocopy_run backend requests flag =
  Zerocopy.with_flag flag @@ fun () ->
  let rt, r = Scenarios.zerocopy_http_rt backend ?requests () in
  let kernel = (Runtime.machine rt).Machine.kernel in
  let faults =
    match Runtime.lb rt with None -> 0 | Some lb -> Lb.fault_count lb
  in
  {
    z_name = Scenarios.config_name backend;
    z_rps = r.Scenarios.z_req_per_sec;
    z_bytes = r.Scenarios.z_bytes_copied;
    z_syscalls = workload_syscalls kernel;
    z_faults = faults;
    z_ring =
      ( r.Scenarios.z_ring_granted,
        r.Scenarios.z_ring_consumed,
        r.Scenarios.z_ring_reclaimed );
  }

let zerocopy requests =
  let check backend =
    let on = zerocopy_run (Some backend) requests true in
    let off = zerocopy_run (Some backend) requests false in
    let granted, consumed, reclaimed = on.z_ring in
    Printf.printf
      "%-8s on:  %8.0f req/s  %9dB copied  syscalls %6d  faults %d  ring \
       %d/%d/%d\n"
      on.z_name on.z_rps on.z_bytes on.z_syscalls on.z_faults granted consumed
      reclaimed;
    let g', c', r' = off.z_ring in
    Printf.printf
      "%-8s off: %8.0f req/s  %9dB copied  syscalls %6d  faults %d  ring \
       %d/%d/%d\n"
      off.z_name off.z_rps off.z_bytes off.z_syscalls off.z_faults g' c' r';
    let fail msg = Error (Printf.sprintf "%s: %s" on.z_name msg) in
    if on.z_syscalls <> off.z_syscalls then
      fail
        (Printf.sprintf "kernel syscall counts diverged (on %d, off %d)"
           on.z_syscalls off.z_syscalls)
    else if on.z_faults <> off.z_faults then
      fail
        (Printf.sprintf "fault counts diverged (on %d, off %d)" on.z_faults
           off.z_faults)
    else if on.z_ring <> off.z_ring then
      fail "rx-ring descriptor counters diverged across the flag"
    else if granted <> consumed + reclaimed then
      fail
        (Printf.sprintf "rx-ring descriptors leaked (%d granted, %d consumed, \
                         %d reclaimed)"
           granted consumed reclaimed)
    else if on.z_bytes >= off.z_bytes then
      fail
        (Printf.sprintf "bytes copied did not shrink (on %d, off %d)"
           on.z_bytes off.z_bytes)
    else if on.z_rps < 1.10 *. off.z_rps then
      fail
        (Printf.sprintf "req/s gain below 10%% (on %.0f, off %.0f, %+.1f%%)"
           on.z_rps off.z_rps
           (100.0 *. ((on.z_rps /. off.z_rps) -. 1.0)))
    else Ok ()
  in
  Printf.printf "zerocopy check on zerocopy_http (%s requests)\n"
    (match requests with Some n -> string_of_int n | None -> "default");
  let results = List.map check Encl_litterbox.Backend.all in
  match List.find_map (function Error e -> Some e | Ok () -> None) results with
  | None ->
      print_endline
        "zerocopy: every backend serves >= 10% more req/s with strictly \
         fewer bytes copied; enforcement identical";
      0
  | Some e ->
      prerr_endline ("profile: zerocopy: " ^ e);
      1

(* ------------------------------------------------------------------ *)
(* crossover: the SFI trade-off flips between workload shapes *)

(* LB_SFI inverts LB_VTX's cost structure: sandbox crossings are ~free,
   memory accesses are not. The acceptance check pins both halves of
   that crossover, with enforcement held constant (equal fault counts,
   equal workload syscall counts — the memory-management family is
   excluded exactly as in the sysring check, since MPK transfers issue
   pkey_mprotect calls no other backend needs):

   - on the switch-heavy scenario (http: an enclosure entered per
     request), SFI must spend strictly fewer switch-category cycles
     than VTX;
   - on the access-heavy scenario (bild: per-pixel loads and stores
     inside one enclosure), SFI must spend strictly more
     access-category cycles than MPK (which pays per switch, never per
     access). *)

type xover_run = {
  x_name : string;
  x_switch : int;
  x_access : int;
  x_faults : int;
  x_syscalls : int;
}

let crossover_run scenario backend requests =
  match run_scenario scenario (Some backend) requests with
  | Error e -> Error e
  | Ok (rt, _) ->
      let m = Runtime.machine rt in
      let clock = m.Machine.clock in
      let lb = Option.get (Runtime.lb rt) in
      Ok
        {
          x_name = Scenarios.config_name (Some backend);
          x_switch = Clock.spent clock Clock.Switch;
          x_access = Clock.spent clock Clock.Access;
          x_faults = Lb.fault_count lb;
          x_syscalls = workload_syscalls m.Machine.kernel;
        }

let crossover switch_scenario access_scenario requests =
  let print_row scenario r =
    Printf.printf
      "%-6s %-8s switch %10d  access %10d  faults %d  syscalls %d\n" scenario
      r.x_name r.x_switch r.x_access r.x_faults r.x_syscalls
  in
  let enforcement_matches scenario a b =
    if a.x_faults <> b.x_faults then
      Error
        (Printf.sprintf "%s: fault counts diverged (%s %d, %s %d)" scenario
           a.x_name a.x_faults b.x_name b.x_faults)
    else if a.x_syscalls <> b.x_syscalls then
      Error
        (Printf.sprintf "%s: workload syscall counts diverged (%s %d, %s %d)"
           scenario a.x_name a.x_syscalls b.x_name b.x_syscalls)
    else Ok ()
  in
  let switch_leg =
    match
      ( crossover_run switch_scenario Lb.Sfi requests,
        crossover_run switch_scenario Lb.Vtx requests )
    with
    | Error e, _ | _, Error e -> Error e
    | Ok sfi, Ok vtx -> (
        print_row switch_scenario sfi;
        print_row switch_scenario vtx;
        match enforcement_matches switch_scenario sfi vtx with
        | Error e -> Error e
        | Ok () ->
            if sfi.x_switch >= vtx.x_switch then
              Error
                (Printf.sprintf
                   "%s: SFI switch cycles (%d) not strictly below VTX (%d)"
                   switch_scenario sfi.x_switch vtx.x_switch)
            else Ok ())
  in
  let access_leg =
    match
      ( crossover_run access_scenario Lb.Sfi requests,
        crossover_run access_scenario Lb.Mpk requests )
    with
    | Error e, _ | _, Error e -> Error e
    | Ok sfi, Ok mpk -> (
        print_row access_scenario sfi;
        print_row access_scenario mpk;
        match enforcement_matches access_scenario sfi mpk with
        | Error e -> Error e
        | Ok () ->
            if sfi.x_access <= mpk.x_access then
              Error
                (Printf.sprintf
                   "%s: SFI access cycles (%d) not strictly above MPK (%d)"
                   access_scenario sfi.x_access mpk.x_access)
            else Ok ())
  in
  match (switch_leg, access_leg) with
  | Ok (), Ok () ->
      print_endline
        "crossover: SFI cheaper to cross than VTX, costlier to touch memory \
         than MPK; enforcement identical";
      0
  | (Error e, _ | _, Error e) ->
      prerr_endline ("profile: crossover: " ^ e);
      1

(* ------------------------------------------------------------------ *)
(* smp: the scaling curve of the sharded machine *)

(* Acceptance (the SMP issue): at 4 cores smp_http must serve at least
   [min_speedup]x the 1-core requests per second — req/s is measured
   against the makespan, the slowest core's lane — while the kernel
   executes the same number of workload system calls and enforcement
   records the same number of faults at every core count. The whole
   1..16-core curve is written as a JSON artifact for CI to upload
   next to BENCH_results.json. *)

let smp backend requests min_speedup out =
  let core_counts = [ 1; 2; 4; 8; 16 ] in
  let runs =
    List.map
      (fun cores -> Scenarios.smp_http backend ~cores ?requests ())
      core_counts
  in
  let base = List.hd runs in
  let module Json = Export.Json in
  let rows =
    List.map
      (fun (r : Scenarios.smp_result) ->
        let speedup =
          r.Scenarios.s_req_per_sec /. base.Scenarios.s_req_per_sec
        in
        Printf.printf
          "%-8s smp_http %2d cores %9.0f req/s (%5.2fx, efficiency %.3f)  \
           steals %5d  switches %6d  faults %d  syscalls %d\n"
          (Scenarios.config_name backend)
          r.Scenarios.s_cores r.Scenarios.s_req_per_sec speedup
          (speedup /. float_of_int r.Scenarios.s_cores)
          r.Scenarios.s_steals r.Scenarios.s_switches r.Scenarios.s_faults
          r.Scenarios.s_syscalls;
        Json.Obj
          [
            ("cores", Json.Int r.Scenarios.s_cores);
            ("req_per_sec", Json.Float r.Scenarios.s_req_per_sec);
            ("speedup", Json.Float speedup);
            ( "efficiency",
              Json.Float (speedup /. float_of_int r.Scenarios.s_cores) );
            ("wall_ns", Json.Int r.Scenarios.s_wall_ns);
            ("cpu_ns", Json.Int r.Scenarios.s_cpu_ns);
            ("steals", Json.Int r.Scenarios.s_steals);
            ("affinity_hits", Json.Int r.Scenarios.s_affinity_hits);
            ("switches", Json.Int r.Scenarios.s_switches);
            ("faults", Json.Int r.Scenarios.s_faults);
            ("syscalls", Json.Int r.Scenarios.s_syscalls);
          ])
      runs
  in
  write_file out
    (Json.to_string
       (Json.Obj
          [
            ("backend", Json.String (Scenarios.config_name backend));
            ("rows", Json.List rows);
          ]));
  Printf.printf "smp: wrote %s (%d rows)\n" out (List.length rows);
  let problems =
    List.concat_map
      (fun (r : Scenarios.smp_result) ->
        let p = ref [] in
        if r.Scenarios.s_faults <> base.Scenarios.s_faults then
          p :=
            Printf.sprintf
              "fault counts diverged across core counts (1 core %d, %d cores \
               %d)"
              base.Scenarios.s_faults r.Scenarios.s_cores r.Scenarios.s_faults
            :: !p;
        if r.Scenarios.s_syscalls <> base.Scenarios.s_syscalls then
          p :=
            Printf.sprintf
              "workload syscall counts diverged across core counts (1 core \
               %d, %d cores %d)"
              base.Scenarios.s_syscalls r.Scenarios.s_cores
              r.Scenarios.s_syscalls
            :: !p;
        if r.Scenarios.s_requests <> base.Scenarios.s_requests then
          p :=
            Printf.sprintf
              "request counts diverged across core counts (1 core %d, %d \
               cores %d)"
              base.Scenarios.s_requests r.Scenarios.s_cores
              r.Scenarios.s_requests
            :: !p;
        !p)
      (List.tl runs)
  in
  let problems =
    match List.find_opt (fun r -> r.Scenarios.s_cores = 4) runs with
    | None -> "no 4-core run" :: problems
    | Some r4 ->
        let speedup =
          r4.Scenarios.s_req_per_sec /. base.Scenarios.s_req_per_sec
        in
        if speedup < min_speedup then
          Printf.sprintf
            "4-core speedup %.2fx below the %.2fx gate (1 core %.0f req/s, 4 \
             cores %.0f req/s)"
            speedup min_speedup base.Scenarios.s_req_per_sec
            r4.Scenarios.s_req_per_sec
          :: problems
        else problems
  in
  match problems with
  | [] ->
      Printf.printf
        "smp: 4-core speedup meets the %.2fx gate at identical fault and \
         syscall counts\n"
        min_speedup;
      0
  | ps ->
      List.iter (fun p -> prerr_endline ("profile: smp: " ^ p)) ps;
      1

(* ------------------------------------------------------------------ *)
(* gate: diff fresh bench results against the committed baseline *)

let read_doc label path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (label ^ ": " ^ e)
  | contents -> (
      match Gate.parse_doc contents with
      | Ok doc -> Ok doc
      | Error e -> Error (Printf.sprintf "%s (%s): %s" label path e))

(* --write-baseline: promote the fresh results to be the committed
   baseline. Deliberately the only way to bless new or changed rows —
   the gate fails on any unbaselined row, so adding a bench row means
   rerunning the bench and regenerating the baseline here. The fresh
   file is parsed first (a malformed baseline would wedge every later
   gate run) and copied verbatim. *)
let write_baseline baseline_path results_path =
  match In_channel.with_open_bin results_path In_channel.input_all with
  | exception Sys_error e ->
      prerr_endline ("profile: results: " ^ e);
      1
  | contents -> (
      match Gate.parse_doc contents with
      | Error e ->
          prerr_endline
            (Printf.sprintf "profile: results (%s): %s" results_path e);
          1
      | Ok doc ->
          write_file baseline_path contents;
          Printf.printf "gate: wrote %s (%d rows, quick=%b) from %s\n"
            baseline_path
            (List.length doc.Gate.rows)
            doc.Gate.quick results_path;
          0)

let gate baseline_path results_path write =
  if write then write_baseline baseline_path results_path
  else
    match
      (read_doc "baseline" baseline_path, read_doc "results" results_path)
    with
    | Error e, _ | _, Error e ->
        prerr_endline ("profile: " ^ e);
        1
    | Ok baseline, Ok fresh ->
        let report = Gate.compare_docs ~baseline ~fresh in
        print_string (Gate.render report);
        if Gate.failed report then 1 else 0

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring *)

let backend_arg =
  let parse = function
    | "baseline" -> Ok None
    | s -> (
        match Encl_litterbox.Backend.of_string s with
        | Some b -> Ok (Some b)
        | None -> Error (`Msg ("unknown backend " ^ s)))
  in
  let print ppf c = Format.pp_print_string ppf (Scenarios.config_name c) in
  Arg.(
    value
    & opt (conv (parse, print)) (Some Lb.Mpk)
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:"baseline, mpk, vtx, lwc or sfi.")

let requests_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "requests" ] ~docv:"N"
        ~doc:"Request count for the HTTP-style scenarios.")

let out_dir_arg =
  Arg.(
    value
    & opt string "."
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:
          "Directory receiving flamegraph.folded and \
           profile.speedscope.json.")

let top_arg =
  Arg.(
    value
    & opt int 12
    & info [ "top" ] ~docv:"N"
        ~doc:"Attribution cells to print before folding the rest.")

let scenario_cmd sc =
  Cmd.v
    (Cmd.info sc
       ~doc:("Profile the " ^ sc ^ " scenario: attribution table + stacks."))
    Term.(const (run sc) $ backend_arg $ requests_arg $ out_dir_arg $ top_arg)

let overhead_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt string "http"
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Scenario to compare backends on.")
  in
  Cmd.v
    (Cmd.info "overhead"
       ~doc:
         "Compare the MPK and VT-x switch shares of one workload's wall \
          time against the paper's Table 1 ordering.")
    Term.(const overhead $ scenario_arg $ requests_arg)

let fastpath_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt string "http"
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Scenario to compare on.")
  in
  Cmd.v
    (Cmd.info "fastpath"
       ~doc:
         "Run one workload with the fast path on and off, on both MPK and \
          VT-x; exit 1 unless the switch+seccomp share is strictly smaller \
          with the fast path on (enforcement outcomes identical).")
    Term.(const fastpath $ scenario_arg $ requests_arg)

let sysring_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt string "http"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Scenario to compare on (http, fasthttp or wiki).")
  in
  Cmd.v
    (Cmd.info "sysring"
       ~doc:
         "Run one workload with the syscall ring on and off, on the \
          Baseline, MPK and VT-x; exit 1 unless VT-x serves >= 15% more \
          req/s with strictly fewer VM EXITs and the Baseline gains req/s, \
          at equal kernel syscall and fault counts, or unless the Baseline \
          out-serves every backend on http, fasthttp, wiki and \
          zerocopy_http under the shipped flags.")
    Term.(const sysring $ scenario_arg $ requests_arg)

let zerocopy_cmd =
  Cmd.v
    (Cmd.info "zerocopy"
       ~doc:
         "Run zerocopy_http with ENCL_ZEROCOPY on and off on every backend; \
          exit 1 unless the flag buys >= 10% req/s with strictly fewer \
          ledger bytes copied at identical kernel-syscall, fault and \
          rx-ring descriptor counts.")
    Term.(const zerocopy $ requests_arg)

let crossover_cmd =
  let switch_arg =
    Arg.(
      value
      & opt string "http"
      & info [ "switch-scenario" ] ~docv:"NAME"
          ~doc:"Switch-heavy scenario (SFI must out-switch VTX on it).")
  in
  let access_arg =
    Arg.(
      value
      & opt string "bild"
      & info [ "access-scenario" ] ~docv:"NAME"
          ~doc:"Access-heavy scenario (SFI must out-spend MPK on it).")
  in
  Cmd.v
    (Cmd.info "crossover"
       ~doc:
         "Check the SFI trade-off: strictly fewer switch-category cycles \
          than VTX on the switch-heavy scenario, strictly more \
          access-category cycles than MPK on the access-heavy one, at \
          identical fault and workload-syscall counts.")
    Term.(const crossover $ switch_arg $ access_arg $ requests_arg)

let smp_cmd =
  let min_speedup_arg =
    Arg.(
      value
      & opt float 2.5
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:"Required 4-core over 1-core req/s ratio.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "SMP_scaling.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Artifact receiving the 1..16-core scaling rows.")
  in
  Cmd.v
    (Cmd.info "smp"
       ~doc:
         "Run smp_http at 1, 2, 4, 8 and 16 simulated cores; exit 1 unless \
          the 4-core run serves >= 2.5x the 1-core req/s (makespan) at \
          identical fault and workload-syscall counts. Writes the scaling \
          curve to SMP_scaling.json.")
    Term.(const smp $ backend_arg $ requests_arg $ min_speedup_arg $ out_arg)

let gate_cmd =
  let baseline_arg =
    Arg.(
      value
      & opt string "bench/baseline.json"
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Committed baseline rows.")
  in
  let results_arg =
    Arg.(
      value
      & opt string "BENCH_results.json"
      & info [ "results" ] ~docv:"FILE" ~doc:"Fresh bench results to judge.")
  in
  let write_arg =
    Arg.(
      value & flag
      & info [ "write-baseline" ]
          ~doc:
            "Instead of judging, promote the fresh results file to be the \
             committed baseline (the deliberate way to bless new or changed \
             bench rows).")
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "Diff fresh BENCH_results.json rows against bench/baseline.json \
          with per-metric tolerances; exit 1 on regression, on a vanished \
          row, or on a fresh row with no baseline entry.")
    Term.(const gate $ baseline_arg $ results_arg $ write_arg)

let () =
  let info =
    Cmd.info "profile" ~version:"1.0"
      ~doc:"Attribute every simulated nanosecond to (enclosure x category)"
  in
  let cmds =
    List.map scenario_cmd Scenarios.scenario_names
    @ [
        overhead_cmd; fastpath_cmd; sysring_cmd; zerocopy_cmd; crossover_cmd;
        smp_cmd; gate_cmd;
      ]
  in
  exit (Cmd.eval' (Cmd.group info cmds))
