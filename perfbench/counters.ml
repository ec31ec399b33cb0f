(* The benchmark's one adapter onto the program's counters and global
   settings. Every counter, clock tally and configuration flag the
   benchmark reads goes through this file, so a change to how the
   program stores counters or configuration touches only this file. *)

module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Sched = Encl_golike.Sched
module Pyrt = Encl_pylike.Pyrt
module Attrib = Encl_obs.Attrib
module Obs = Encl_obs.Obs

(* ------------------------------------------------------------------ *)
(* Settings                                                            *)

(* The environment variables that change what the program does. The
   benchmark always runs the shipped defaults: [pin_defaults] overrides
   whatever these said at start-up. ENCL_CORES only feeds the default
   core count, which every workload overrides; ENCL_BENCH_QUICK is read
   by bench/main.ml alone. *)
let env_vars =
  [ "ENCL_SYSRING"; "ENCL_FASTPATH"; "ENCL_ZEROCOPY"; "ENCL_DEFENSES_OFF";
    "ENCL_CORES"; "ENCL_BENCH_QUICK" ]

let pin_defaults () =
  Sysring.set true;
  Fastpath.set true;
  Zerocopy.set true;
  List.iter (fun d -> Defense.set d true) Defense.all

(* The effective settings, for the run's output. *)
let settings () =
  [
    ("sysring", string_of_bool (Sysring.enabled ()));
    ("fastpath", string_of_bool (Fastpath.enabled ()));
    ("zerocopy", string_of_bool (Zerocopy.enabled ()));
    ("defenses", if Defense.all_enabled () then "all" else "partial");
  ]

let set_tracing on = Obs.default_enabled := on

(* ------------------------------------------------------------------ *)
(* Counter snapshots                                                   *)

type t = {
  lanes : int array;  (** busy ns per simulated core *)
  faults : int;
  access_ns : int;
  syscall_ns : int;
  alloc_ns : int;
  gc_ns : int;
  switch_ns : int;
  transfer_ns : int;
  init_ns : int;
  tlb_hits : int;
  tlb_misses : int;
  syscalls : int;
  bytes_copied : int;
  seccomp_hits : int;
  seccomp_misses : int;
  steals : int;
  switches : int;
  switches_elided : int;
  transfers : int;
  ring_drained : int;
  ring_batches : int;
  vmexits : int;
  py_switches : int;
}

(* Each core's TLB is selected by the clock lane, so reading them all
   means visiting every lane; the lane is restored afterwards. *)
let tlb_totals (m : Machine.t) =
  let clock = m.Machine.clock in
  let saved = Clock.lane clock in
  let hits = ref 0 and misses = ref 0 in
  for lane = 0 to Clock.lane_count clock - 1 do
    Clock.set_lane clock lane;
    let tlb = Cpu.tlb m.Machine.cpu in
    hits := !hits + Tlb.hits tlb;
    misses := !misses + Tlb.misses tlb
  done;
  Clock.set_lane clock saved;
  (!hits, !misses)

let snapshot ?sched ?py (m : Machine.t) (lb : Lb.t option) =
  let clock = m.Machine.clock in
  let spent = Clock.spent clock in
  let lbc f = match lb with Some lb -> f lb | None -> 0 in
  let tlb_hits, tlb_misses = tlb_totals m in
  let seccomp_hits, seccomp_misses = K.seccomp_cache_stats m.Machine.kernel in
  {
    lanes = Array.init (max m.Machine.cores (Clock.lane_count clock)) (Clock.lane_ns clock);
    access_ns = spent Clock.Access;
    syscall_ns = spent Clock.Syscall;
    alloc_ns = spent Clock.Alloc;
    gc_ns = spent Clock.Gc;
    switch_ns = spent Clock.Switch;
    transfer_ns = spent Clock.Transfer;
    init_ns = spent Clock.Init;
    faults = lbc Lb.fault_count;
    tlb_hits;
    tlb_misses;
    syscalls = K.syscall_count m.Machine.kernel;
    bytes_copied = K.bytes_copied_count m.Machine.kernel + m.Machine.bytes_copied;
    seccomp_hits;
    seccomp_misses;
    steals = (match sched with Some s -> Sched.steal_count s | None -> 0);
    switches = lbc Lb.switch_count;
    switches_elided = lbc Lb.switch_elided_count;
    transfers = lbc Lb.transfer_count;
    ring_drained = lbc Lb.ring_drained_count;
    ring_batches = lbc Lb.ring_batches_count;
    vmexits = lbc Lb.vmexit_count;
    py_switches = (match py with Some p -> Pyrt.trusted_switches p | None -> 0);
  }

(* [diff a b]: what happened between snapshot [a] and the later [b].
   [init_ns] is kept absolute: initialization happens at boot, before
   any measured window. *)
let diff a b =
  let lane i = if i < Array.length a.lanes then a.lanes.(i) else 0 in
  {
    lanes = Array.mapi (fun i v -> v - lane i) b.lanes;
    access_ns = b.access_ns - a.access_ns;
    syscall_ns = b.syscall_ns - a.syscall_ns;
    alloc_ns = b.alloc_ns - a.alloc_ns;
    gc_ns = b.gc_ns - a.gc_ns;
    switch_ns = b.switch_ns - a.switch_ns;
    transfer_ns = b.transfer_ns - a.transfer_ns;
    init_ns = b.init_ns;
    faults = b.faults - a.faults;
    tlb_hits = b.tlb_hits - a.tlb_hits;
    tlb_misses = b.tlb_misses - a.tlb_misses;
    syscalls = b.syscalls - a.syscalls;
    bytes_copied = b.bytes_copied - a.bytes_copied;
    seccomp_hits = b.seccomp_hits - a.seccomp_hits;
    seccomp_misses = b.seccomp_misses - a.seccomp_misses;
    steals = b.steals - a.steals;
    switches = b.switches - a.switches;
    switches_elided = b.switches_elided - a.switches_elided;
    transfers = b.transfers - a.transfers;
    ring_drained = b.ring_drained - a.ring_drained;
    ring_batches = b.ring_batches - a.ring_batches;
    vmexits = b.vmexits - a.vmexits;
    py_switches = b.py_switches - a.py_switches;
  }

(* ------------------------------------------------------------------ *)
(* Attribution (traced runs only)                                      *)

type attrib = {
  total : int;
  trusted_user : int;
  enclosed_syscall : int;
  enclosed_seccomp : int;
  switch : int;  (** prolog + epilog, every scope *)
  transfer : int;
  gc : int;
}

(* Start a fresh attribution window at the current clock. *)
let attrib_reset (m : Machine.t) = Obs.reset m.Machine.obs

let attrib (m : Machine.t) =
  let a = Obs.attribution m.Machine.obs in
  let cells = Attrib.cells a in
  let sum pred =
    List.fold_left (fun acc (s, c, ns) -> if pred s c then acc + ns else acc) 0 cells
  in
  {
    total = Attrib.total a;
    trusted_user = sum (fun s c -> s = "trusted" && c = "user");
    enclosed_syscall = sum (fun s c -> s <> "trusted" && c = "syscall");
    enclosed_seccomp = sum (fun s c -> s <> "trusted" && c = "seccomp");
    switch = sum (fun _ c -> c = "prolog" || c = "epilog");
    transfer = sum (fun _ c -> c = "transfer");
    gc = sum (fun _ c -> c = "gc");
  }
