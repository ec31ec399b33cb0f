(* trace-dump: run a named scenario with observability enabled and write
   the machine's event ring and metric registry to disk.

   Usage:
     dune exec bin/trace_dump.exe -- wiki
     dune exec bin/trace_dump.exe -- fasthttp --backend vtx --requests 400
     dune exec bin/trace_dump.exe -- bild --summary
     dune exec bin/trace_dump.exe -- validate trace.json

   trace.json is Chrome trace_event format (load it in chrome://tracing
   or Perfetto); metrics.json is a flat per-enclosure dump. Both carry
   simulated-clock timestamps, so reruns produce identical files. *)

module Runtime = Encl_golike.Runtime
module Machine = Encl_litterbox.Machine
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel
module Sysno = Encl_kernel.Sysno
module Scenarios = Encl_apps.Scenarios
module Obs = Encl_obs.Obs
module Metrics = Encl_obs.Metrics
module Export = Encl_obs.Export
open Cmdliner

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

(* The acceptance invariant: the sink's cross-scope totals must agree
   exactly with LitterBox's own counters, the syscall ring must balance
   (submitted = drained + pending), and the obs syscall totals must
   reconcile with the kernel's count even when batching reordered the
   drains: guest-side denials (VTX/LWC filter checks, ring entries
   denied at drain) never enter the kernel, so
   allowed + denied - guest_denied = kernel syscall_count. *)
let cross_check lb machine obs =
  let kernel = machine.Machine.kernel in
  let check name total lb_count =
    if total <> lb_count then
      Some
        (Printf.sprintf "%s mismatch: obs total %d, counter %d" name total
           lb_count)
    else None
  in
  let m = Obs.metrics obs in
  let ring_balance =
    let submitted = K.ring_submitted_count kernel in
    let drained = K.ring_drained_count kernel in
    let pending = K.ring_pending kernel in
    if submitted <> drained + pending then
      Some
        (Printf.sprintf
           "ring imbalance: submitted %d <> drained %d + pending %d" submitted
           drained pending)
    else None
  in
  (* The rx view ring's descriptor ledger: every granted slot is either
     consumed by the owner or force-reclaimed (close), with the obs
     mirrors exact; [rxring_inflight] covers a dump taken mid-flight. *)
  let rxring_balance =
    let granted, consumed, reclaimed = K.rxring_counters kernel in
    let inflight = K.rxring_inflight kernel in
    if granted <> consumed + reclaimed + inflight then
      Some
        (Printf.sprintf
           "rx-ring imbalance: granted %d <> consumed %d + reclaimed %d + \
            inflight %d"
           granted consumed reclaimed inflight)
    else None
  in
  (* Both halves of the bytes_copied ledger against their obs mirrors:
     kernel user-memory passes and guest buffer-to-buffer copies. *)
  let copy_ledger =
    let k_obs = Metrics.total m "bytes_copied.kernel" in
    let k_ledger = K.bytes_copied_count kernel in
    let a_obs = Metrics.total m "bytes_copied.app" in
    let a_ledger = machine.Machine.bytes_copied in
    if k_obs <> k_ledger then
      Some
        (Printf.sprintf "bytes_copied.kernel mismatch: obs %d, kernel %d"
           k_obs k_ledger)
    else if a_obs <> a_ledger then
      Some
        (Printf.sprintf "bytes_copied.app mismatch: obs %d, machine %d" a_obs
           a_ledger)
    else None
  in
  let syscall_reconcile =
    let allowed = Metrics.total m "syscall.allowed" in
    let denied = Metrics.total m "syscall.denied" in
    let guest = Lb.guest_denied_count lb in
    let kernel_count = K.syscall_count kernel in
    if allowed + denied - guest <> kernel_count then
      Some
        (Printf.sprintf
           "syscall count mismatch: obs allowed %d + denied %d - guest \
            denials %d <> kernel %d"
           allowed denied guest kernel_count)
    else None
  in
  List.filter_map Fun.id
    [
      check "switch" (Metrics.total m "switch") (Lb.switch_count lb);
      check "switch_elided"
        (Metrics.total m "switch_elided")
        (Lb.switch_elided_count lb);
      check "fault" (Metrics.total m "fault") (Lb.fault_count lb);
      check "transfer" (Metrics.total m "transfer") (Lb.transfer_count lb);
      check "transfer_coalesced"
        (Metrics.total m "transfer_coalesced")
        (Lb.transfer_coalesced_count lb);
      check "ring_submitted"
        (Metrics.total m "ring_submitted")
        (K.ring_submitted_count kernel);
      check "ring_drained"
        (Metrics.total m "ring_drained")
        (K.ring_drained_count kernel);
      check "ring_batches"
        (Metrics.total m "ring_batches")
        (K.ring_batches_count kernel);
      check "sfi_masked_access"
        (Metrics.total m "sfi_masked_access")
        (Lb.sfi_masked_access_count lb);
      check "tainted_verified"
        (Metrics.total m "tainted_verified")
        (Lb.tainted_verified_count lb);
      check "tainted_rejected"
        (Metrics.total m "tainted_rejected")
        (Lb.tainted_rejected_count lb);
      (let granted, _, _ = K.rxring_counters kernel in
       check "ring.rx_granted" (Metrics.total m "ring.rx_granted") granted);
      (let _, consumed, _ = K.rxring_counters kernel in
       check "ring.rx_consumed" (Metrics.total m "ring.rx_consumed") consumed);
      (let _, _, reclaimed = K.rxring_counters kernel in
       check "ring.rx_reclaimed"
         (Metrics.total m "ring.rx_reclaimed")
         reclaimed);
      ring_balance;
      rxring_balance;
      copy_ledger;
      syscall_reconcile;
    ]

(* Conservation, re-checked over the written artifact: metrics.json
   used to carry one attribution ledger per machine; it now carries one
   per core. Each core's cells must sum to that core's attributed
   total, the core totals must sum to the machine-wide attributed
   total, and that total must equal the elapsed clock. A core missing
   from the file is a hard failure — an idle core must appear as an
   explicit zero ledger, not as an absence. *)
let per_core_conservation ~cores:machine_cores contents =
  let module Json = Export.Json in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Json.parse contents with
  | Error e -> fail "metrics.json unparseable: %s" e
  | Ok doc -> (
      match Json.member "attribution" doc with
      | None -> fail "metrics.json has no attribution object"
      | Some attrib -> (
          let num field j = Option.bind (Json.member field j) Json.to_float in
          let attributed = num "attributed_ns" attrib in
          (match (num "elapsed_ns" attrib, attributed) with
          | Some e, Some a when e <> a ->
              fail "attributed %.0fns <> elapsed %.0fns" a e
          | None, _ | _, None -> fail "attribution totals missing"
          | _ -> ());
          match Option.bind (Json.member "cores" attrib) Json.to_list with
          | None -> fail "attribution has no per-core ledgers"
          | Some cores ->
              let seen = Hashtbl.create 8 in
              let core_sum = ref 0 in
              List.iter
                (fun cj ->
                  match (num "core" cj, num "attributed_ns" cj) with
                  | Some c, Some a ->
                      Hashtbl.replace seen (int_of_float c) ();
                      core_sum := !core_sum + int_of_float a;
                      let cell_sum =
                        match
                          Option.bind (Json.member "cells" cj) Json.to_list
                        with
                        | None -> 0.
                        | Some cells ->
                            List.fold_left
                              (fun acc cell ->
                                acc +. Option.value ~default:0. (num "ns" cell))
                              0. cells
                      in
                      if int_of_float cell_sum <> int_of_float a then
                        fail "core %d: cells sum to %.0fns, ledger says %.0fns"
                          (int_of_float c) cell_sum a
                  | _ -> fail "malformed per-core ledger entry")
                cores;
              for c = 0 to machine_cores - 1 do
                if not (Hashtbl.mem seen c) then
                  fail "core %d's ledger is missing from metrics.json" c
              done;
              (match attributed with
              | Some a when int_of_float a <> !core_sum ->
                  fail
                    "per-core totals sum to %dns, machine-wide ledger says \
                     %.0fns"
                    !core_sum a
              | _ -> ()))));
  List.rev !problems

let run name backend requests out_dir summary =
  Obs.default_enabled := true;
  Encl_obs.Witness.default_enabled := true;
  match Scenarios.run_named name backend ?requests () with
  | Error e ->
      prerr_endline ("trace-dump: " ^ e);
      1
  | Ok (rt, result_line) -> (
      let obs = (Runtime.machine rt).Machine.obs in
      let rec mkdir_p dir =
        if not (Sys.file_exists dir) then begin
          mkdir_p (Filename.dirname dir);
          Sys.mkdir dir 0o755
        end
      in
      mkdir_p out_dir;
      let trace_path = Filename.concat out_dir "trace.json" in
      let metrics_path = Filename.concat out_dir "metrics.json" in
      let witness_path = Filename.concat out_dir "witness.json" in
      write_file trace_path (Export.trace_json obs);
      write_file metrics_path (Export.metrics_json obs);
      write_file witness_path (Export.witness_json obs);
      Printf.printf "%s under %s: %s\n" name
        (Scenarios.config_name backend)
        result_line;
      Printf.printf "%d events (%d dropped) -> %s, %s, %s\n"
        (Obs.total_events obs) (Obs.dropped_events obs) trace_path metrics_path
        witness_path;
      (* A lossy trace is a blind spot, not a footnote: every consumer of
         these artifacts (the CI cross-checks, the miner, a human in
         Perfetto) must be able to trust that what is absent did not
         happen. Overflow is a hard failure — size the ring up or shrink
         the workload. *)
      if Obs.dropped_events obs > 0 then begin
        Printf.eprintf
          "trace-dump: event ring overflowed, %d of %d events evicted — the \
           trace is truncated (metric totals remain exact); raise the ring \
           capacity or shrink the workload\n"
          (Obs.dropped_events obs)
          (Obs.total_events obs);
        exit 1
      end;
      (match
         per_core_conservation
           ~cores:(Runtime.machine rt).Machine.cores
           (In_channel.with_open_bin metrics_path In_channel.input_all)
       with
      | [] -> ()
      | problems ->
          List.iter (fun p -> prerr_endline ("trace-dump: " ^ p)) problems;
          exit 1);
      if summary then print_string (Export.summary obs);
      match Runtime.lb rt with
      | None -> 0
      | Some lb -> (
          match cross_check lb (Runtime.machine rt) obs with
          | [] ->
              Printf.printf
                "counters reconcile: switches=%d (%d elided) transfers=%d \
                 (%d coalesced) faults=%d ring=%d/%d in %d batches\n"
                (Lb.switch_count lb)
                (Lb.switch_elided_count lb)
                (Lb.transfer_count lb)
                (Lb.transfer_coalesced_count lb)
                (Lb.fault_count lb)
                (Lb.ring_drained_count lb)
                (K.ring_submitted_count (Runtime.machine rt).Machine.kernel)
                (Lb.ring_batches_count lb);
              0
          | problems ->
              List.iter (fun p -> prerr_endline ("trace-dump: " ^ p)) problems;
              1))

let validate path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e ->
      prerr_endline ("trace-dump: " ^ e);
      1
  | contents -> (
      match Export.Json.parse contents with
      | Ok _ ->
          Printf.printf "%s: valid JSON (%d bytes)\n" path
            (String.length contents);
          0
      | Error e ->
          prerr_endline (Printf.sprintf "trace-dump: %s: %s" path e);
          1)

(* ------------------------------------------------------------------ *)
(* enforcement: a timing-free enforcement report for the sysring diff
   stage of bin/ci.sh.  The script runs this twice — ENCL_SYSRING=1 and
   ENCL_SYSRING=0 — and requires byte-identical output: batching may
   change what a run costs and how fibers interleave, never what
   enforcement decides.  Only order-invariant quantities are printed
   (per-op results in program order, fault logs, quarantine state, the
   kernel's per-syscall totals, request counts); nothing timing-bearing
   (req/s, simulated ns) appears. *)

let enforcement_packages () =
  [
    Runtime.package "main" ~imports:[ "lib" ]
      ~functions:[ ("main", 64); ("body", 32); ("io_body", 32) ]
      ~enclosures:
        [
          {
            Encl_elf.Objfile.enc_name = "enc";
            enc_policy = "; sys=none";
            enc_closure = "body";
            enc_deps = [ "lib" ];
          };
          {
            (* A distinct memory view from "enc" so the two enclosures
               get distinct PKRU values under LB_MPK. *)
            Encl_elf.Objfile.enc_name = "io";
            enc_policy = "img:U; sys=all";
            enc_closure = "io_body";
            enc_deps = [ "lib" ];
          };
        ]
      ();
    Runtime.package "lib" ~imports:[ "img" ] ~functions:[ ("work", 64) ] ();
    Runtime.package "img" ~functions:[ ("decode", 64) ] ();
  ]

let enforcement_ops backend =
  let rt =
    match
      Runtime.boot
        (Runtime.with_backend backend)
        ~packages:(enforcement_packages ()) ~entry:"main"
    with
    | Ok rt -> rt
    | Error e -> failwith ("trace-dump enforcement boot: " ^ e)
  in
  let lb = Option.get (Runtime.lb rt) in
  Lb.set_fault_budget lb 2;
  let result = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error e -> "errno:" ^ K.errno_name e
  in
  let op name f =
    let outcome =
      try f () with
      | Lb.Fault { reason; _ } -> "fault:" ^ reason
      | Lb.Quarantined { enclosure; _ } -> "quarantined:" ^ enclosure
    in
    Printf.printf "  %-18s %s\n" name outcome
  in
  op "trusted_getpid" (fun () -> result (Runtime.syscall rt K.Getpid));
  op "io_getuid" (fun () ->
      Runtime.with_enclosure rt "io" (fun () ->
          result (Runtime.syscall_batched rt K.Getuid)));
  op "io_housekeeping" (fun () ->
      (* Allowed fire-and-forget calls accumulate on the ring and drain
         at the enclosure epilog in one batch; with the ring off each is
         a direct call.  Either way the kernel sees all three. *)
      Runtime.with_enclosure rt "io" (fun () ->
          Runtime.syscall_nowait rt K.Clock_gettime;
          Runtime.syscall_nowait rt K.Futex;
          Runtime.syscall_nowait rt K.Epoll_wait;
          "ok"));
  op "denied_getuid" (fun () ->
      Runtime.with_enclosure rt "enc" (fun () ->
          result (Runtime.syscall_batched rt K.Getuid)));
  op "denied_again" (fun () ->
      Runtime.with_enclosure rt "enc" (fun () ->
          result (Runtime.syscall_batched rt K.Getuid)));
  op "quarantine_probe" (fun () ->
      Runtime.with_enclosure rt "enc" (fun () ->
          result (Runtime.syscall_batched rt K.Getuid)));
  Printf.printf "  faults=%d quarantined(enc=%b io=%b)\n" (Lb.fault_count lb)
    (Lb.quarantined lb "enc") (Lb.quarantined lb "io");
  List.iter (fun l -> Printf.printf "  fault: %s\n" l) (Lb.fault_log lb);
  List.iter
    (fun (nr, n) -> Printf.printf "  sys %-14s %d\n" (Sysno.name nr) n)
    (K.trace (Runtime.machine rt).Machine.kernel)

(* Memory-management syscalls (mmap, pkey_mprotect, ...) are excluded
   from the diffed totals: their counts follow allocator span growth and
   GC timing, which legitimately move with fiber interleaving.  The ring
   never carries them — every syscall the apps issue is non-mem, and
   those must match call-for-call. *)
let workload_trace kernel =
  List.filter
    (fun (nr, _) -> Sysno.category nr <> Sysno.Cat_mem)
    (K.trace kernel)

let enforcement_scenario name run =
  let rt, (r : Scenarios.http_result) = run () in
  let lb = Option.get (Runtime.lb rt) in
  let kernel = (Runtime.machine rt).Machine.kernel in
  let trace = workload_trace kernel in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 trace in
  Printf.printf
    "  %-16s served=%d workload_syscalls=%d faults=%d ring_balanced=%b\n" name
    r.Scenarios.h_requests total (Lb.fault_count lb)
    (K.ring_submitted_count kernel
    = K.ring_drained_count kernel + K.ring_pending kernel);
  List.iter
    (fun (nr, n) -> Printf.printf "    sys %-14s %d\n" (Sysno.name nr) n)
    trace

(* The zero-copy scenario's enforcement report: everything here must be
   invariant under both ENCL_SYSRING and ENCL_ZEROCOPY (ci.sh byte-diffs
   the output across each flag), so bytes_copied — the one quantity the
   Zerocopy flag is allowed to move — is deliberately absent. The rx
   ring's descriptor counters are pure enforcement state and appear. *)
let enforcement_zc name run =
  let rt, (r : Scenarios.zc_result) = run () in
  let kernel = (Runtime.machine rt).Machine.kernel in
  let faults =
    match Runtime.lb rt with None -> 0 | Some lb -> Lb.fault_count lb
  in
  let trace = workload_trace kernel in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 trace in
  Printf.printf
    "  %-16s served=%d workload_syscalls=%d faults=%d rxring=%d/%d/%d \
     balanced=%b\n"
    name r.Scenarios.z_requests total faults r.Scenarios.z_ring_granted
    r.Scenarios.z_ring_consumed r.Scenarios.z_ring_reclaimed
    (r.Scenarios.z_ring_granted
    = r.Scenarios.z_ring_consumed + r.Scenarios.z_ring_reclaimed);
  List.iter
    (fun (nr, n) -> Printf.printf "    sys %-14s %d\n" (Sysno.name nr) n)
    trace

(* The pylike leg: localcopy under the Zerocopy flag is copy-on-write,
   so everything observable — payload bytes through either side of a
   share, the fault on a write to the R-granted source, refcounts once
   shares settle — must be flag-invariant; only copy costs move. The
   workload exercises a read through the share, a write-after-localcopy
   (materializes the private copy), a trusted write to a shared source
   (detaches the outstanding share with its pre-write bytes), and a
   denied in-enclosure source write. *)
module Pyrt = Encl_pylike.Pyrt

let enforcement_pylike backend =
  let ok = function Ok v -> v | Error e -> failwith ("pylike leg: " ^ e) in
  let rt = ok (Pyrt.boot ~backend ~mode:Pyrt.Conservative ()) in
  ok (Pyrt.import_module rt ~name:"src" ());
  ok (Pyrt.import_module rt ~name:"dst" ());
  let lb = Option.get (Pyrt.lb rt) in
  Lb.set_fault_budget lb 3;
  let payload obj = Bytes.to_string (Pyrt.read_payload rt obj) in
  let src = Pyrt.alloc_obj rt ~modul:"src" ~len:8 in
  Pyrt.write_payload rt src (Bytes.of_string "abcdefgh");
  let shared = ref None in
  let enc body =
    Pyrt.with_enclosure rt ~name:"pycow" ~owner:"__main__" ~deps:[ "dst" ]
      ~policy:"src:R; sys=none" body
  in
  (match
     enc (fun () ->
         let c1 = Pyrt.localcopy rt src ~dst_module:"dst" in
         Printf.printf "  localcopy_read    %s\n" (payload c1);
         Pyrt.write_payload rt c1 (Bytes.of_string "WRITTEN!");
         Printf.printf "  write_after_copy  copy=%s src=%s\n" (payload c1)
           (payload src);
         shared := Some (Pyrt.localcopy rt src ~dst_module:"dst"))
   with
  | Ok () -> ()
  | Error e -> Printf.printf "  enclosure_error   %s\n" e);
  Pyrt.write_payload rt src (Bytes.of_string "12345678");
  (match !shared with
  | Some c ->
      Printf.printf "  source_write      copy=%s src=%s\n" (payload c)
        (payload src)
  | None -> Printf.printf "  source_write      copy=missing\n");
  (match enc (fun () -> Pyrt.write_payload rt src (Bytes.of_string "IllEGAL!"))
   with
  | Ok () -> Printf.printf "  denied_src_write  ok\n"
  | Error e -> Printf.printf "  denied_src_write  error:%s\n" e
  | exception Lb.Fault { reason; _ } ->
      Printf.printf "  denied_src_write  fault:%s\n" reason);
  Printf.printf "  faults=%d src_rc=%d final_src=%s\n" (Lb.fault_count lb)
    (Pyrt.refcount rt src) (payload src)

let enforcement () =
  List.iter
    (fun backend ->
      Printf.printf "enforcement under %s\n" (Lb.backend_name backend);
      enforcement_ops backend)
    Encl_litterbox.Backend.all;
  Printf.printf "scenario enforcement\n";
  List.iter
    (fun backend ->
      let bname = Lb.backend_name backend in
      enforcement_scenario ("http/" ^ bname) (fun () ->
          Scenarios.http_rt (Some backend) ~requests:120 ());
      enforcement_scenario ("fasthttp/" ^ bname) (fun () ->
          Scenarios.fasthttp_rt (Some backend) ~requests:120 ());
      enforcement_zc ("zerocopy_http/" ^ bname) (fun () ->
          Scenarios.zerocopy_http_rt (Some backend) ~requests:120 ()))
    Encl_litterbox.Backend.all;
  Printf.printf "pylike localcopy enforcement\n";
  List.iter
    (fun backend ->
      Printf.printf "  under %s\n" (Lb.backend_name backend);
      enforcement_pylike backend)
    Encl_litterbox.Backend.all;
  0

(* ------------------------------------------------------------------ *)
(* Attack-corpus cross-check: the obs mirrors of the containment
   counters must agree with the harness tallies, and each run's
   "gate_violation" obs counter must equal the litterbox's own
   gate-violation count (cpu forged-switch faults + kernel origin kills
   + mm denials). Any escape is also a failure here. *)

module Attack = Encl_attack.Attack

let attacks_check () =
  Obs.default_enabled := true;
  Attack.reset_counters ();
  let errors = ref [] in
  let obs_contained = ref 0 and obs_escaped = ref 0 in
  List.iter
    (fun backend ->
      List.iter
        (fun (a : Attack.t) ->
          let r = a.Attack.run ~backend ~seed:42 in
          let m = Obs.metrics r.Attack.machine.Machine.obs in
          let label =
            Printf.sprintf "%s/%s" a.Attack.name
              (Encl_litterbox.Backend.arg_name backend)
          in
          obs_contained := !obs_contained + Metrics.total m "attack_contained";
          obs_escaped := !obs_escaped + Metrics.total m "attack_escaped";
          let obs_gate = Metrics.total m "gate_violation" in
          let lb_gate = Lb.gate_violation_count r.Attack.lb in
          if obs_gate <> lb_gate then
            errors :=
              Printf.sprintf
                "%s: gate_violation mismatch: obs %d, litterbox %d" label
                obs_gate lb_gate
              :: !errors;
          if not r.Attack.outcome.Attack.contained then
            errors :=
              Printf.sprintf "%s: ESCAPED (%s)" label
                r.Attack.outcome.Attack.detail
              :: !errors;
          Printf.printf "  %-28s contained=%b gate_violations=%d\n" label
            r.Attack.outcome.Attack.contained lb_gate)
        Attack.all)
    Encl_litterbox.Backend.all;
  if !obs_contained <> Attack.contained_count () then
    errors :=
      Printf.sprintf "attack_contained mismatch: obs %d, harness %d"
        !obs_contained
        (Attack.contained_count ())
      :: !errors;
  if !obs_escaped <> Attack.escaped_count () then
    errors :=
      Printf.sprintf "attack_escaped mismatch: obs %d, harness %d" !obs_escaped
        (Attack.escaped_count ())
      :: !errors;
  match !errors with
  | [] ->
      Printf.printf
        "attack counters reconcile: contained=%d escaped=%d across %d runs\n"
        (Attack.contained_count ())
        (Attack.escaped_count ())
        (List.length Attack.all * List.length Encl_litterbox.Backend.all);
      0
  | es ->
      List.iter (fun e -> Printf.printf "MISMATCH %s\n" e) (List.rev es);
      1

(* ------------------------------------------------------------------ *)
(* Witness cross-check: the witness recorder's per-scope syscall
   aggregates are a third, independently-fed ledger next to the obs
   metric counters (fed from the kernel) and the kernel's own
   per-syscall totals. For each backend x scenario the three must
   reconcile exactly:
     witness allowed/denied      == obs "syscall.allowed"/"syscall.denied"
     kernel count - exits        == allowed + denied - guest denials
       (guest-side filter denials never enter the kernel;
        exit_program is recorded by the kernel but traps no filter)
     witness per-category totals == obs "syscall.<category>" totals *)

module Witness = Encl_obs.Witness

let witness_scenario errors label lb kernel obs =
  let w = Lb.witness lb in
  let m = Obs.metrics obs in
  let fail fmt = Printf.ksprintf (fun s -> errors := (label ^ ": " ^ s) :: !errors) fmt in
  let w_allowed, w_denied = Witness.totals w in
  let o_allowed = Metrics.total m "syscall.allowed" in
  let o_denied = Metrics.total m "syscall.denied" in
  if w_allowed <> o_allowed then
    fail "allowed mismatch: witness %d, obs %d" w_allowed o_allowed;
  if w_denied <> o_denied then
    fail "denied mismatch: witness %d, obs %d" w_denied o_denied;
  let kernel_count =
    K.syscall_count kernel - K.count_for kernel Sysno.Exit
  in
  let guest = Lb.guest_denied_count lb in
  if kernel_count <> w_allowed + w_denied - guest then
    fail
      "kernel mismatch: kernel %d (sans exit) <> witness allowed %d + denied \
       %d - guest denials %d"
      kernel_count w_allowed w_denied guest;
  List.iter
    (fun cat ->
      let name = Sysno.category_name cat in
      let w_cat = Witness.category_total w ~category:name in
      let o_cat = Metrics.total m ("syscall." ^ name) in
      if w_cat <> o_cat then
        fail "category %s mismatch: witness %d, obs %d" name w_cat o_cat)
    Sysno.all_categories;
  Printf.printf "  %-12s witness=%d+%d obs=%d+%d kernel=%d guest_denied=%d\n"
    label w_allowed w_denied o_allowed o_denied kernel_count guest

let witness_check () =
  Obs.default_enabled := true;
  Witness.default_enabled := true;
  let errors = ref [] in
  List.iter
    (fun backend ->
      List.iter
        (fun (name, requests) ->
          let label =
            Printf.sprintf "%s/%s" name
              (Encl_litterbox.Backend.arg_name backend)
          in
          match Scenarios.run_named name (Some backend) ~requests () with
          | Error e -> errors := (label ^ ": " ^ e) :: !errors
          | Ok (rt, _) -> (
              match Runtime.lb rt with
              | None -> errors := (label ^ ": no litterbox") :: !errors
              | Some lb ->
                  let machine = Runtime.machine rt in
                  witness_scenario errors label lb machine.Machine.kernel
                    machine.Machine.obs))
        [ ("http", 160); ("wiki", 120); ("pq", 80) ])
    Encl_litterbox.Backend.all;
  Obs.default_enabled := false;
  Witness.default_enabled := false;
  match List.rev !errors with
  | [] ->
      Printf.printf
        "witness reconciles with the obs counters and the kernel totals \
         across %d runs\n"
        (3 * List.length Encl_litterbox.Backend.all);
      0
  | es ->
      List.iter (fun e -> Printf.printf "MISMATCH %s\n" e) es;
      1

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
  (* Default under _build so casual runs never litter the work tree with
     trace.json/metrics.json (they used to land in the repo root). *)
  Arg.(
    value
    & opt string "_build/trace"
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:"Directory receiving trace.json and metrics.json (created if \
              missing).")

let summary_arg =
  Arg.(
    value & flag
    & info [ "s"; "summary" ] ~doc:"Also print the aligned-text summary.")

let scenario_cmd sc =
  Cmd.v
    (Cmd.info sc ~doc:("Run the " ^ sc ^ " scenario and export its trace."))
    Term.(
      const (run sc) $ backend_arg $ requests_arg $ out_dir_arg $ summary_arg)

let validate_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check that FILE parses as JSON (used by bin/ci.sh).")
    Term.(const validate $ file_arg)

let enforcement_cmd =
  Cmd.v
    (Cmd.info "enforcement"
       ~doc:
         "Print a timing-free enforcement report (op results in program \
          order, fault logs, quarantine state, kernel syscall totals). \
          bin/ci.sh runs this with ENCL_SYSRING=1 and =0 and requires the \
          two outputs to be byte-identical.")
    Term.(const enforcement $ const ())

let witness_cmd =
  Cmd.v
    (Cmd.info "witness"
       ~doc:
         "Run http, wiki and pq on every backend with the witness recorder \
          on and cross-check its per-scope syscall aggregates against the \
          obs metric counters and the kernel's own totals.")
    Term.(const witness_check $ const ())

let attacks_cmd =
  Cmd.v
    (Cmd.info "attacks"
       ~doc:
         "Run the attack corpus on every backend and cross-check the obs \
          containment counters against the harness tallies and the \
          litterbox gate-violation count.")
    Term.(const attacks_check $ const ())

let () =
  let info =
    Cmd.info "trace-dump" ~version:"1.0"
      ~doc:"Run a scenario and export its trace and metrics"
  in
  let cmds =
    List.map scenario_cmd Scenarios.scenario_names
    @ [ validate_cmd; enforcement_cmd; attacks_cmd; witness_cmd ]
  in
  exit (Cmd.eval' (Cmd.group info cmds))
