(* Tests for the batched syscall ring (ENCL_SYSRING).

   The core property is differential, the same shape as test_fastpath:
   batching may change what a run *costs* (VM EXITs, traps, filter
   walks), never what it *does*. Random op sequences — batched and
   fire-and-forget syscalls from enclosures and fibers, denials,
   quarantine crossings — are executed twice, ENCL_SYSRING on and off,
   and every enforcement outcome (syscall results and errnos, fault log,
   fault and kill counts, quarantine state) must be identical. *)

module Runtime = Encl_golike.Runtime
module Sched = Encl_golike.Sched
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel

let packages () =
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

let kernel rt = (Runtime.machine rt).Machine.kernel

let boot backend =
  (* Pinned to one core regardless of ENCL_CORES: the drain-point tests
     count batches and VM EXITs on a single shared ring; with more
     cores each core drains its own ring. test_smp owns the multi-core
     differential. *)
  let rcfg = { (Runtime.with_backend backend) with Runtime.cores = 1 } in
  match Runtime.boot rcfg ~packages:(packages ()) ~entry:"main" with
  | Ok rt -> rt
  | Error e -> failwith ("test_sysring boot: " ^ e)

(* ------------------------------------------------------------------ *)
(* The differential property *)

type op =
  | Call_empty  (** enter/leave the sys=none enclosure *)
  | Batched_io  (** getuid through the ring from inside sys=all *)
  | Batched_denied  (** getuid through the ring from inside sys=none *)
  | Batched_trusted  (** getpid through the ring, no enclosure *)
  | Direct_io  (** classic unbatched getuid alongside the ring *)
  | Batched_errno  (** a stat of a missing file through the ring *)
  | Nowait_io
      (** fire-and-forget allowed calls; the epilog drain completes
          them. Only {e allowed} calls ride nowait in this test: a
          denied nowait call faults at the call site with the ring off
          but at the drain point with it on — a documented semantic
          difference, not an enforcement one. *)
  | Fiber_round of int  (** n fibers, each awaiting one batched call *)
  | Supervised_denied  (** a supervised fiber killed by a denied entry *)

let op_name = function
  | Call_empty -> "call_empty"
  | Batched_io -> "batched_io"
  | Batched_denied -> "batched_denied"
  | Batched_trusted -> "batched_trusted"
  | Direct_io -> "direct_io"
  | Batched_errno -> "batched_errno"
  | Nowait_io -> "nowait_io"
  | Fiber_round n -> Printf.sprintf "fiber_round:%d" n
  | Supervised_denied -> "supervised_denied"

(* Run one op, returning a stable outcome string. Fault-family
   exceptions are part of the observable behaviour, not errors: their
   descriptions must match between the batched and direct runs. *)
let run_op rt op =
  let result = function
    | Ok v -> Printf.sprintf "ok:%d" v
    | Error e -> "errno:" ^ K.errno_name e
  in
  match
    match op with
    | Call_empty ->
        Runtime.with_enclosure rt "enc" (fun () -> ());
        "ok"
    | Batched_io ->
        Runtime.with_enclosure rt "io" (fun () ->
            result (Runtime.syscall_batched rt K.Getuid))
    | Batched_denied ->
        Runtime.with_enclosure rt "enc" (fun () ->
            result (Runtime.syscall_batched rt K.Getuid))
    | Batched_trusted -> result (Runtime.syscall_batched rt K.Getpid)
    | Direct_io ->
        Runtime.with_enclosure rt "io" (fun () ->
            result (Runtime.syscall rt K.Getuid))
    | Batched_errno ->
        Runtime.with_enclosure rt "io" (fun () ->
            result (Runtime.syscall_batched rt (K.Stat "/missing")))
    | Nowait_io ->
        Runtime.with_enclosure rt "io" (fun () ->
            Runtime.syscall_nowait rt K.Getpid;
            Runtime.syscall_nowait rt K.Getuid);
        "ok"
    | Fiber_round n ->
        (* Results are collected per fiber index so the outcome string
           does not depend on scheduling order, which batching is free
           to change. *)
        let slots = Array.make n "unscheduled" in
        for i = 0 to n - 1 do
          Runtime.go rt (fun () ->
              slots.(i) <-
                Runtime.with_enclosure rt "io" (fun () ->
                    result (Runtime.syscall_batched rt K.Getuid)))
        done;
        Runtime.kick rt;
        "fibers:" ^ String.concat "," (Array.to_list slots)
    | Supervised_denied -> (
        let id =
          Runtime.go_supervised rt (fun () ->
              Runtime.with_enclosure rt "enc" (fun () ->
                  ignore (Runtime.syscall_batched rt K.Getuid)))
        in
        Runtime.kick rt;
        match Runtime.fiber_result rt id with
        | Some Sched.Finished -> "fiber:finished"
        | Some (Sched.Killed reason) -> "fiber:killed:" ^ reason
        | None -> "fiber:running")
  with
  | outcome -> outcome
  | exception Lb.Fault { reason; _ } -> "fault:" ^ reason
  | exception Lb.Quarantined { enclosure; _ } -> "quarantined:" ^ enclosure

type outcome = {
  o_results : string list;
  o_faults : int;
  o_fault_log : string list;
  o_kills : int;
  o_quarantined : bool * bool;  (** enc, io *)
}

(* Execute the op sequence on a fresh runtime. While we're at it,
   cross-check the ring's own invariants: the submit/drain/pending
   balance and — with the flag off — that nothing touched the ring at
   all. Tracing is on so the traced-only paths (ring_drain spans, fault
   events) run too. *)
let run_ops backend ops =
  Encl_obs.Obs.with_tracing ~witness:false @@ fun () ->
  let rt = boot backend in
  let lb = Option.get (Runtime.lb rt) in
  Lb.set_fault_budget lb 3;
  let results = List.map (run_op rt) ops in
  let k = kernel rt in
  let submitted = K.ring_submitted_count k in
  if submitted <> K.ring_drained_count k + K.ring_pending k then
    QCheck.Test.fail_reportf "ring unbalanced: %d submitted <> %d + %d"
      submitted (K.ring_drained_count k) (K.ring_pending k);
  if K.ring_pending k <> 0 then
    QCheck.Test.fail_reportf
      "%d entries still pending after the sequence (awaits and epilogs \
       should have drained everything)"
      (K.ring_pending k);
  ( {
      o_results = results;
      o_faults = Lb.fault_count lb;
      o_fault_log = Lb.fault_log lb;
      o_kills = Sched.kill_count (Runtime.sched rt);
      o_quarantined = (Lb.quarantined lb "enc", Lb.quarantined lb "io");
    },
    submitted )

let pp_outcome o =
  Printf.sprintf "results=[%s] faults=%d log=[%s] kills=%d quar=(%b,%b)"
    (String.concat "; " o.o_results)
    o.o_faults
    (String.concat "; " o.o_fault_log)
    o.o_kills (fst o.o_quarantined) (snd o.o_quarantined)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Call_empty);
        (4, return Batched_io);
        (2, return Batched_denied);
        (2, return Batched_trusted);
        (2, return Direct_io);
        (1, return Batched_errno);
        (2, return Nowait_io);
        (2, map (fun n -> Fiber_round n) (int_range 1 6));
        (1, return Supervised_denied);
      ])

let backend_gen = QCheck.Gen.oneofl Fixtures.all_backends

let scenario_arb =
  QCheck.make
    ~print:(fun (backend, ops) ->
      Printf.sprintf "%s: %s"
        (Lb.backend_name backend)
        (String.concat ", " (List.map op_name ops)))
    QCheck.Gen.(pair backend_gen (list_size (int_range 1 30) op_gen))

let differential_prop (backend, ops) =
  let batched, submitted =
    Sysring.with_flag true (fun () -> run_ops backend ops)
  in
  let direct, submitted_off =
    Sysring.with_flag false (fun () -> run_ops backend ops)
  in
  if submitted_off <> 0 then
    QCheck.Test.fail_reportf "ring off still submitted %d entries"
      submitted_off;
  ignore submitted;
  if batched <> direct then
    QCheck.Test.fail_reportf "outcomes diverged:\n  ring on:  %s\n  ring off: %s"
      (pp_outcome batched) (pp_outcome direct);
  true

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"the ring preserves enforcement outcomes"
         ~count:320 scenario_arb differential_prop);
  ]

(* ------------------------------------------------------------------ *)
(* Drain points *)

let drain_tests =
  [
    Alcotest.test_case "a full queue flushes before accepting the entry"
      `Quick (fun () ->
        Sysring.with_flag true @@ fun () ->
        let rt = boot Lb.Mpk in
        let k = kernel rt in
        (* Ring capacity is 64: the 65th submission must drain the 64
           queued entries first so submission order is preserved. *)
        let comps = List.init 70 (fun _ -> K.ring_submit k K.Getpid) in
        Alcotest.(check int) "one forced batch" 1 (K.ring_batches_count k);
        Alcotest.(check int) "full ring drained" 64 (K.ring_drained_count k);
        Alcotest.(check int) "overflow still queued" 6 (K.ring_pending k);
        Alcotest.(check bool) "first entry completed" true
          (K.completion_ready (List.hd comps));
        (* Awaiting a still-pending completion drains the rest. *)
        List.iter
          (fun c ->
            match K.ring_await k c with
            | Ok _ -> ()
            | Error e -> Alcotest.fail ("getpid errno: " ^ K.errno_name e))
          comps;
        Alcotest.(check int) "nothing pending after await" 0
          (K.ring_pending k);
        Alcotest.(check int) "balance" (K.ring_submitted_count k)
          (K.ring_drained_count k));
    Alcotest.test_case "the epilog drains before the environment leaves"
      `Quick (fun () ->
        Sysring.with_flag true @@ fun () ->
        let rt = boot Lb.Vtx in
        let k = kernel rt in
        let comp = ref None in
        Runtime.with_enclosure rt "io" (fun () ->
            comp := Some (K.ring_submit k K.Getuid);
            Alcotest.(check int) "queued inside" 1 (K.ring_pending k);
            Alcotest.(check bool) "not completed inside" false
              (K.completion_ready (Option.get !comp)));
        Alcotest.(check int) "drained by the epilog" 0 (K.ring_pending k);
        Alcotest.(check bool) "completed by the epilog" true
          (K.completion_ready (Option.get !comp));
        match K.ring_await k (Option.get !comp) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("getuid errno: " ^ K.errno_name e));
    Alcotest.test_case "parked fibers share one batch and one VM EXIT"
      `Quick (fun () ->
        Sysring.with_flag true @@ fun () ->
        let rt = boot Lb.Vtx in
        let lb = Option.get (Runtime.lb rt) in
        let k = kernel rt in
        let vm0 = Lb.vmexit_count lb in
        let slots = Array.make 5 "unscheduled" in
        Runtime.run_main rt (fun () ->
            for i = 0 to 4 do
              Runtime.go rt (fun () ->
                  slots.(i) <-
                    (match Runtime.syscall_batched rt K.Getpid with
                    | Ok v -> "ok:" ^ string_of_int v
                    | Error e -> "errno:" ^ K.errno_name e))
            done);
        (* All five fibers parked on their completions; the scheduler's
           empty-runq drain served them in a single batch — on LB_VTX,
           a single hypercall. *)
        Alcotest.(check int) "one batch" 1 (K.ring_batches_count k);
        Alcotest.(check int) "five entries" 5 (K.ring_drained_count k);
        Alcotest.(check int) "one VM EXIT for the batch" (vm0 + 1)
          (Lb.vmexit_count lb);
        Array.iter
          (fun s ->
            Alcotest.(check bool) ("fiber result " ^ s) true
              (String.length s > 3 && String.sub s 0 3 = "ok:"))
          slots);
  ]

(* ------------------------------------------------------------------ *)
(* Denied entries *)

let denied_tests =
  [
    Alcotest.test_case "a denied entry completes as the direct-path fault"
      `Quick (fun () ->
        let run flag backend =
          Sysring.with_flag flag @@ fun () ->
          let rt = boot backend in
          let lb = Option.get (Runtime.lb rt) in
          let syscall =
            if flag then Runtime.syscall_batched else Runtime.syscall
          in
          let r =
            try
              Runtime.with_enclosure rt "enc" (fun () ->
                  match syscall rt K.Getuid with
                  | Ok v -> "ok:" ^ string_of_int v
                  | Error e -> "errno:" ^ K.errno_name e)
            with
            | Lb.Fault { reason; _ } -> "fault:" ^ reason
            | Lb.Quarantined { enclosure; _ } -> "quarantined:" ^ enclosure
          in
          (r, Lb.fault_count lb, Lb.fault_log lb, Lb.quarantined lb "enc")
        in
        List.iter
          (fun backend ->
            let ring = run true backend and direct = run false backend in
            let r, faults, log, quar = ring in
            let r', faults', log', quar' = direct in
            Alcotest.(check string)
              (Lb.backend_name backend ^ ": result")
              r' r;
            Alcotest.(check int) "fault count" faults' faults;
            Alcotest.(check (list string)) "fault log" log' log;
            Alcotest.(check bool) "quarantine" quar' quar)
          Fixtures.all_backends);
    Alcotest.test_case "awaiting a denied completion re-raises its fault"
      `Quick (fun () ->
        Sysring.with_flag true @@ fun () ->
        let rt = boot Lb.Vtx in
        let lb = Option.get (Runtime.lb rt) in
        let k = kernel rt in
        let raised =
          try
            Runtime.with_enclosure rt "enc" (fun () ->
                let c = K.ring_submit k K.Getuid in
                K.ring_drain k;
                Alcotest.(check bool) "completed after drain" true
                  (K.completion_ready c);
                Alcotest.(check int) "fault recorded at drain" 1
                  (Lb.fault_count lb);
                match K.ring_await k c with
                | Ok _ | Error _ -> "no fault"
                | exception Lb.Fault { reason; _ } -> reason)
          with Lb.Fault { reason; _ } -> reason
        in
        Alcotest.(check string) "the drain's verdict"
          "system call getuid denied by enclosure filter" raised;
        (* Denied guest-side: the verdict never left the VM. *)
        Alcotest.(check int) "counted as guest-denied" 1
          (Lb.guest_denied_count lb));
    Alcotest.test_case "the ring is untouched with the flag down" `Quick
      (fun () ->
        Sysring.with_flag false @@ fun () ->
        let rt = boot Lb.Mpk in
        let k = kernel rt in
        Runtime.with_enclosure rt "io" (fun () ->
            (match Runtime.syscall_batched rt K.Getuid with
            | Ok _ -> ()
            | Error e -> Alcotest.fail ("getuid errno: " ^ K.errno_name e));
            Runtime.syscall_nowait rt K.Getpid);
        Alcotest.(check int) "no submissions" 0 (K.ring_submitted_count k);
        Alcotest.(check int) "no batches" 0 (K.ring_batches_count k));
  ]

(* ------------------------------------------------------------------ *)
(* The Baseline ring: the ring is the kernel's, so a program without
   LitterBox batches too — and still does exactly what it did. *)

let boot_baseline cores =
  match
    Runtime.boot { Runtime.baseline with Runtime.cores } ~packages:(packages ())
      ~entry:"main"
  with
  | Ok rt -> rt
  | Error e -> failwith ("test_sysring baseline boot: " ^ e)

let baseline_prop ops =
  let run flag =
    Sysring.with_flag flag @@ fun () ->
    let rt = boot_baseline 1 in
    let results = List.map (run_op rt) ops in
    (* Without LitterBox there is no epilog drain: trailing
       fire-and-forget entries wait for the next drain point — this
       quiesce. *)
    let k = kernel rt in
    K.ring_drain k;
    (results, K.syscall_count k, K.ring_submitted_count k, K.ring_pending k)
  in
  let on, count_on, submitted, pending = run true in
  let off, count_off, submitted_off, _ = run false in
  if on <> off then
    QCheck.Test.fail_reportf "results diverged:\n  ring on:  %s\n  ring off: %s"
      (String.concat "; " on) (String.concat "; " off);
  if count_on <> count_off then
    QCheck.Test.fail_reportf "syscall_count diverged: on %d, off %d" count_on
      count_off;
  if submitted_off <> 0 || pending <> 0 then
    QCheck.Test.fail_reportf "ring off submitted %d, ring on left %d pending"
      submitted_off pending;
  ignore submitted;
  true

let http_baseline flag =
  Sysring.with_flag flag @@ fun () ->
  let r =
    Encl_apps.Scenarios.http None
      ~rcfg:{ Runtime.baseline with Runtime.cores = 1 }
      ~requests:100 ()
  in
  let k = kernel r.h_rt in
  (* Allocator span growth (mmap) moves with fiber interleaving; the
     ring never carries it, so compare the workload's own calls. *)
  let workload =
    List.filter
      (fun (nr, _) -> Encl_kernel.Sysno.(category nr <> Cat_mem))
      (K.trace k)
  in
  ( r.Encl_apps.Scenarios.h_requests,
    workload,
    K.syscall_count k,
    K.trap_count k )

let baseline_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"ring on and off give the Baseline identical results" ~count:100
         (QCheck.make
            ~print:(fun ops -> String.concat ", " (List.map op_name ops))
            QCheck.Gen.(list_size (int_range 1 30) op_gen))
         baseline_prop);
    Alcotest.test_case "Baseline http pays fewer traps than it makes syscalls"
      `Quick (fun () ->
        let served, workload, syscalls, traps = http_baseline true in
        let served', workload', syscalls', traps' = http_baseline false in
        Alcotest.(check int) "same requests served" served' served;
        Alcotest.(check bool)
          "same workload syscalls" true (workload = workload');
        Alcotest.(check int) "ring off: one trap per syscall" syscalls' traps';
        if traps >= syscalls then
          Alcotest.failf "ring on: %d traps for %d syscalls" traps syscalls);
    Alcotest.test_case "each core drains its entries on its own lane" `Quick
      (fun () ->
        Sysring.with_flag true @@ fun () ->
        let rt = boot_baseline 4 in
        let k = kernel rt in
        let clock = Runtime.clock rt in
        let lanes () = Array.init 4 (Clock.lane_ns clock) in
        let lanes0 = lanes () and now0 = Clock.now clock in
        let comps =
          List.init 4 (fun core ->
              Clock.set_lane clock core;
              K.ring_submit k K.Getpid)
        in
        Clock.set_lane clock 0;
        K.ring_drain k;
        List.iter (fun c -> ignore (K.ring_await k c)) comps;
        let spent = Array.mapi (fun i ns -> ns - lanes0.(i)) (lanes ()) in
        Alcotest.(check int) "per-lane ns sum to the total"
          (Clock.now clock - now0)
          (Array.fold_left ( + ) 0 spent);
        Array.iteri
          (fun core ns ->
            Alcotest.(check int)
              (Printf.sprintf "lane %d paid its own submit, trap, entry" core)
              spent.(0) ns)
          spent;
        Alcotest.(check int) "one batch per core" 4 (K.ring_batches_count k);
        Alcotest.(check int) "one IPI per remote core" 3 (K.ring_ipi_count k));
  ]

let () =
  Alcotest.run "sysring"
    [
      ("differential", differential_tests);
      ("drain-points", drain_tests);
      ("denied-entries", denied_tests);
      ("baseline", baseline_tests);
    ]
