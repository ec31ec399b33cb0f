module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Obs = Encl_obs.Obs

type _ Effect.t +=
  | Yield : unit Effect.t
  | Wait : { pred : unit -> bool; internal : bool } -> unit Effect.t

type step_result =
  | Done
  | Yielded of (unit, step_result) Effect.Deep.continuation
  | Waiting of
      (unit -> bool) * bool * (unit, step_result) Effect.Deep.continuation

type state =
  | Start of (unit -> unit)
  | Cont of (unit, step_result) Effect.Deep.continuation

type fiber = {
  fid : int;
  root : bool;  (** the initial fiber of {!main}: faults abort, Go-style *)
  supervised : bool;
  mutable core : int;
      (** home core: the spawner's at creation, moved by work stealing *)
  mutable env : Lb.env_ref option;  (** [None] in baseline mode *)
  mutable state : state option;
  mutable pred : (unit -> bool) option;
  mutable internal_wait : bool;
      (** the pending wait can only be satisfied by another fiber
          (channel, mutex, waitgroup), never by the outside world *)
}

type exit_status = Finished | Killed of string

exception Deadlock of { fiber_ids : int list }

(* The machine is sharded into [cores] simulated cores: one run queue,
   one affinity streak and one clock lane per core, plus a record of the
   environment each core last had installed (its private PKRU/CR3
   state). A single seeded interleaver picks the next (core, fiber)
   step, so any run is a deterministic function of (program, seed, core
   count) — and with one core the whole layer degenerates to the old
   scheduler exactly: core 0 is always picked, no rng draw is ever
   made, and no core hop ever happens. *)
type t = {
  machine : Machine.t;
  lb : Lb.t option;
  cores : int;
  runqs : fiber Queue.t array;  (** per-core FIFO run queues *)
  blocked : fiber Queue.t;  (** shared: blocked fibers belong to no core *)
  mutable current : fiber option;
  ids : Encl_util.Ids.t;
  rng : Encl_util.Rng.t;
      (** the interleaver's seeded stream: pick tie-breaks and steal
          victim choices — the only nondeterminism-shaped decisions,
          made deterministic by the seed *)
  mutable exec_switches : int;
  mutable affinity_hits : int;
  affinity_streaks : int array;
      (** per-core consecutive out-of-FIFO-order picks *)
  core_envs : Lb.env_ref option array;
      (** what each core last had installed; [None] = still the boot
          (trusted) environment *)
  mutable steal_count : int;
  steals_per_core : int array;  (** steals performed by each thief core *)
  results : (int, exit_status) Hashtbl.t;
  mutable kill_count : int;
}

let default_seed = 0x5317_ac3dL

let create ~machine ?(seed = default_seed) ~lb () =
  let cores = machine.Machine.cores in
  {
    machine;
    lb;
    cores;
    runqs = Array.init cores (fun _ -> Queue.create ());
    blocked = Queue.create ();
    current = None;
    ids = Encl_util.Ids.make ();
    rng = Encl_util.Rng.make ~seed;
    exec_switches = 0;
    affinity_hits = 0;
    affinity_streaks = Array.make cores 0;
    core_envs = Array.make cores None;
    steal_count = 0;
    steals_per_core = Array.make cores 0;
    results = Hashtbl.create 16;
    kill_count = 0;
  }

let in_fiber t = t.current <> None

let capture_current_env t =
  match t.lb with None -> None | Some lb -> Some (Lb.capture_env lb)

(* New fibers start on their spawner's core — transitive core
   inheritance, mirroring the transitive environment inheritance: the
   fibers of a meta-package pile up where their environment is already
   installed, and only the stealer moves them. *)
let current_core t = match t.current with Some f -> f.core | None -> 0

let spawn t ?(root = false) ~supervised f =
  let core = current_core t in
  let fiber =
    {
      fid = Encl_util.Ids.next t.ids;
      root;
      supervised;
      core;
      env = capture_current_env t;
      state = Some (Start f);
      pred = None;
      internal_wait = false;
    }
  in
  Queue.push fiber t.runqs.(core);
  fiber.fid

let go t f = ignore (spawn t ~supervised:false f)
let spawn_supervised t f = spawn t ~supervised:true f
let result t fid = Hashtbl.find_opt t.results fid

let yield t = if in_fiber t then Effect.perform Yield

let wait_until ?(internal = false) t pred =
  if not (in_fiber t) then invalid_arg "Sched.wait_until: not inside a goroutine";
  if not (pred ()) then Effect.perform (Wait { pred; internal })

(* Restore a fiber's environment via the Execute hook, skipping redundant
   switches. *)
let switch_env t fiber =
  match (t.lb, fiber.env) with
  | None, _ -> ()
  | Some lb, env ->
      let target = match env with Some e -> e | None -> Lb.trusted_env_ref lb in
      if not (Lb.env_matches lb target) then begin
        t.exec_switches <- t.exec_switches + 1;
        Lb.execute lb target ~site:"runtime.scheduler"
      end

let save_env t fiber =
  match t.lb with
  | None -> ()
  | Some lb -> fiber.env <- Some (Lb.capture_env lb)

(* A dead fiber must not leave its enclosure environment installed: pull
   the machine back to trusted before running anyone else. (The
   enclosure *stack* already unwound — Enclosure.call runs Epilog on
   unwind — but a fiber spawned inside an enclosure environment never
   ran a Prolog of its own, so the captured environment may still be
   installed here.) *)
let restore_trusted t =
  match t.lb with
  | None -> ()
  | Some lb ->
      let trusted = Lb.trusted_env_ref lb in
      if not (Lb.env_matches lb trusted) then begin
        t.exec_switches <- t.exec_switches + 1;
        Lb.execute lb trusted ~site:"runtime.scheduler"
      end

let is_fault_exn = function
  | Lb.Fault _ | Lb.Quarantined _ | Cpu.Fault _ | K.Syscall_killed _ -> true
  | _ -> false

(* Map a fiber-killing exception to a reason string, accounting the
   fault with LitterBox when one is attached. Only called on the kill
   path, so a fault escaping via re-raise is not double-counted by the
   eventual [run_protected]. *)
let kill_reason t e =
  let described =
    match t.lb with
    | Some lb -> Lb.absorb_fault lb e
    | None -> (
        match e with
        | Cpu.Fault info -> Some (Format.asprintf "%a" Cpu.pp_fault info)
        | K.Syscall_killed { nr; env } ->
            Some
              (Printf.sprintf "seccomp killed system call %s in %s"
                 (Encl_kernel.Sysno.name nr) env)
        | _ -> None)
  in
  match described with Some r -> r | None -> Printexc.to_string e

let note_kill t fiber reason =
  Hashtbl.replace t.results fiber.fid (Killed reason);
  t.kill_count <- t.kill_count + 1;
  let obs = t.machine.Machine.obs in
  if Obs.enabled obs then begin
    Obs.incr obs "fiber.kill";
    Obs.emit obs (Encl_obs.Event.Fiber_kill { fid = fiber.fid; reason });
    Obs.span_mark obs
      ~name:(Printf.sprintf "fiber_kill:%d" fiber.fid)
      ~category:Encl_obs.Span.Sched ()
  end;
  restore_trusted t

let run_step (_ : t) fiber =
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> Done);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some (fun (k : (a, step_result) continuation) -> Yielded k)
          | Wait { pred; internal } ->
              Some
                (fun (k : (a, step_result) continuation) ->
                  Waiting (pred, internal, k))
          | _ -> None);
    }
  in
  match fiber.state with
  | None -> Done
  | Some (Start f) ->
      fiber.state <- None;
      match_with f () handler
  | Some (Cont k) ->
      fiber.state <- None;
      continue k ()

(* Unblocked fibers go back to their home core's queue. *)
let promote_unblocked t =
  let n = Queue.length t.blocked in
  for _ = 1 to n do
    let fiber = Queue.pop t.blocked in
    match fiber.pred with
    | Some p when p () ->
        fiber.pred <- None;
        fiber.internal_wait <- false;
        Queue.push fiber t.runqs.(fiber.core)
    | Some _ -> Queue.push fiber t.blocked
    | None -> Queue.push fiber t.runqs.(fiber.core)
  done

(* Every remaining fiber waits on a predicate only another fiber could
   satisfy, and no fiber is runnable: nothing can ever fire. (Any
   externally-satisfiable wait — an fd, a listener — keeps the check
   quiet, since a later kick may deliver the event.) *)
let check_deadlock t =
  if
    (not (Queue.is_empty t.blocked))
    && Queue.fold (fun acc f -> acc && f.internal_wait) true t.blocked
  then begin
    let fiber_ids =
      Queue.fold (fun acc f -> f.fid :: acc) [] t.blocked |> List.rev
    in
    raise (Deadlock { fiber_ids })
  end

let total_runnable t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.runqs

(* What a core has installed: its recorded environment, or the boot
   (trusted) one if it never ran a fiber. Core 0 is re-synced from the
   live machine state on every scheduler entry, since all driver-side
   work between kicks executes there. *)
let core_installed t lb core =
  match t.core_envs.(core) with
  | Some e -> e
  | None -> Lb.trusted_env_ref lb

(* Enclosure-affinity pick (fast path): among a core's runnable fibers,
   prefer the first whose captured environment that core already has
   installed — running it needs no Execute switch at all. Bounded and
   fair per core: each out-of-FIFO-order pick grows the core's
   [affinity_streak], and once it reaches [affinity_budget] the FIFO
   head runs regardless, so a fiber is overtaken at most
   [affinity_budget] times in a row. When the head itself matches (the
   common single-environment case) the queue is popped exactly as
   before — existing workloads execute in unchanged order. Off (fast
   path disabled, no LitterBox, or a single runnable fiber): plain
   FIFO. *)
let affinity_budget = 8

let fiber_matches_on_core t lb core fiber =
  let target =
    match fiber.env with Some e -> e | None -> Lb.trusted_env_ref lb
  in
  Lb.env_refs_equal target (core_installed t lb core)

let pick_next t core =
  let runq = t.runqs.(core) in
  match t.lb with
  | Some lb
    when Fastpath.enabled ()
         && Queue.length runq > 1
         && t.affinity_streaks.(core) < affinity_budget -> (
      if fiber_matches_on_core t lb core (Queue.peek runq) then begin
        t.affinity_streaks.(core) <- 0;
        Queue.pop runq
      end
      else begin
        let chosen = ref None in
        let rest = Queue.create () in
        Queue.iter
          (fun f ->
            if Option.is_none !chosen && fiber_matches_on_core t lb core f
            then chosen := Some f
            else Queue.push f rest)
          runq;
        Queue.clear runq;
        Queue.transfer rest runq;
        match !chosen with
        | Some f ->
            t.affinity_streaks.(core) <- t.affinity_streaks.(core) + 1;
            t.affinity_hits <- t.affinity_hits + 1;
            let obs = t.machine.Machine.obs in
            if Obs.enabled obs then Obs.incr obs "sched.affinity_hit";
            f
        | None ->
            t.affinity_streaks.(core) <- 0;
            Queue.pop runq
      end)
  | _ ->
      t.affinity_streaks.(core) <- 0;
      Queue.pop runq

(* The interleaver: pick the core that steps next. Cores advance in
   simulated-lane-time order — the least-loaded core (smallest lane
   total) goes first, which is exactly how a real SMP machine's cores
   interleave on a shared timeline — with ties broken by the seeded
   rng. A core with an empty queue is eligible only when it could
   steal (some victim holds at least two runnable fibers: a lone fiber
   is never bounced between cores, so it keeps its installed
   environment). On one core this returns 0 without touching the
   rng. *)
let pick_core t =
  if t.cores = 1 then 0
  else begin
    let clock = t.machine.Machine.clock in
    let stealable =
      let found = ref false in
      Array.iter (fun q -> if Queue.length q > 1 then found := true) t.runqs;
      !found
    in
    let best = ref [] and best_ns = ref max_int in
    for core = t.cores - 1 downto 0 do
      let eligible =
        (not (Queue.is_empty t.runqs.(core))) || stealable
      in
      if eligible then begin
        let ns = Clock.lane_ns clock core in
        if ns < !best_ns then begin
          best := [ core ];
          best_ns := ns
        end
        else if ns = !best_ns then best := core :: !best
      end
    done;
    match !best with
    | [ core ] -> core
    | cores -> List.nth cores (Encl_util.Rng.int t.rng (List.length cores))
  end

(* Deterministic work stealing: an idle core picked by the interleaver
   takes the OLDEST runnable fiber from the victim with the longest
   queue (seeded tie-break). Stealing from the queue head strictly
   improves FIFO fairness — the longest-waiting fiber runs sooner, so
   the per-core affinity budget remains the only source of overtaking
   and the starvation bound survives sharding. Only victims holding at
   least two fibers qualify: a lone fiber is never migrated. *)
let steal t ~thief =
  let best = ref [] and best_len = ref 1 in
  for core = t.cores - 1 downto 0 do
    if core <> thief then begin
      let len = Queue.length t.runqs.(core) in
      if len > !best_len then begin
        best := [ core ];
        best_len := len
      end
      else if len = !best_len && len > 1 then best := core :: !best
    end
  done;
  match !best with
  | [] -> ()
  | victims ->
      let victim =
        match victims with
        | [ v ] -> v
        | vs -> List.nth vs (Encl_util.Rng.int t.rng (List.length vs))
      in
      let fiber = Queue.pop t.runqs.(victim) in
      fiber.core <- thief;
      Queue.push fiber t.runqs.(thief);
      t.steal_count <- t.steal_count + 1;
      t.steals_per_core.(thief) <- t.steals_per_core.(thief) + 1;
      let obs = t.machine.Machine.obs in
      if Obs.enabled obs then Obs.incr obs "sched.steal"

(* Core hop: make [core]'s recorded environment the machine's current
   one before running a fiber there. Free — each core's PKRU, CR3 and
   TLB still hold what that core last installed, so nothing is
   rewritten (Litterbox.install_core_env counts no switch and charges
   no cost). The costed Execute happens afterwards, in [switch_env],
   only when the fiber's environment differs from the core's — which
   is what makes enclosure affinity *core* affinity: fibers of a
   meta-package keep landing on the core whose protection state
   already matches. Never fires with one core: core 0's recorded
   environment is always the live one. *)
let hop_to_core t core =
  match t.lb with
  | None -> ()
  | Some lb ->
      let installed = core_installed t lb core in
      if not (Lb.env_matches lb installed) then
        Lb.install_core_env lb installed

(* Syscall-ring drain point: once no fiber is runnable, every live
   fiber has hit a suspension point, so the kernel's submission queues
   have accumulated as large a cross-fiber batch as this round can
   produce — flush them (one crossing per non-empty per-core ring). Runs
   before [promote_unblocked] because the drain is what satisfies the
   completion predicates of fibers parked in {!Runtime.syscall_batched}.
   A no-op whenever the rings are empty (in particular always, with
   {!Encl_sim.Sysring} off). *)
let drain_ring t =
  let kernel = t.machine.Machine.kernel in
  if K.ring_pending kernel > 0 then K.ring_drain kernel

let rec schedule t =
  if total_runnable t = 0 then begin
    drain_ring t;
    promote_unblocked t;
    if total_runnable t > 0 then schedule t else check_deadlock t
  end
  else begin
    let core = pick_core t in
    if Queue.is_empty t.runqs.(core) then steal t ~thief:core;
    let fiber = pick_next t core in
    run_on_core t core fiber;
    schedule t
  end

(* One (core, fiber) step: select the core's lane, restore its
   protection state, run the fiber, and record what the core leaves
   installed. All scheduler/driver bookkeeping between steps stays on
   lane 0. *)
and run_on_core t core fiber =
  let clock = t.machine.Machine.clock in
  Clock.set_lane clock core;
  Fun.protect
    ~finally:(fun () ->
      (match t.lb with
      | Some lb -> t.core_envs.(core) <- Some (Lb.capture_env lb)
      | None -> ());
      Clock.set_lane clock 0)
    (fun () ->
      hop_to_core t core;
      match switch_env t fiber with
      | () -> run_picked t fiber
      | exception e when is_fault_exn e ->
          (* The resume itself was refused — most likely the resume-check
             defense: the fiber's captured environment was quarantined
             while it was parked. The fiber is killed without resuming
             (its continuation never runs again), exactly as if it had
             faulted, and scheduling continues. *)
          note_kill t fiber (kill_reason t e))

and run_picked t fiber =
  begin
    let saved = t.current in
    t.current <- Some fiber;
    (* One User span per run slice, in the fiber's environment lane: all
       simulated time the slice spends outside an enforcement span is
       the workload's own. Closed when the slice yields, waits, finishes
       or dies — spans never straddle a suspension. *)
    let obs = t.machine.Machine.obs in
    let slice =
      if Obs.enabled obs then
        let lane =
          match fiber.env with
          | Some env when t.lb <> None -> Lb.env_scope env
          | _ -> "trusted"
        in
        Obs.span_enter obs ~lane
          ~name:(Printf.sprintf "fiber:%d" fiber.fid)
          ~category:Encl_obs.Span.User ()
      else -1
    in
    let outcome =
      match run_step t fiber with
      | r -> Ok r
      | exception (K.Exited _ as e) -> Error (`Reraise e)
      | exception e ->
          if fiber.supervised || (is_fault_exn e && not fiber.root) then
            Error (`Kill (kill_reason t e))
          else Error (`Reraise e)
    in
    Obs.span_exit obs slice;
    t.current <- saved;
    (match outcome with
    | Error (`Reraise e) -> raise e
    | Error (`Kill reason) -> note_kill t fiber reason
    | Ok Done ->
        if fiber.supervised then Hashtbl.replace t.results fiber.fid Finished
    | Ok (Yielded k) ->
        save_env t fiber;
        fiber.state <- Some (Cont k);
        Queue.push fiber t.runqs.(fiber.core)
    | Ok (Waiting (p, internal, k)) ->
        save_env t fiber;
        fiber.state <- Some (Cont k);
        fiber.pred <- Some p;
        fiber.internal_wait <- internal;
        Queue.push fiber t.blocked)
  end

(* All work between scheduler entries (boot, driver code, enclosure
   calls made outside any fiber) executes on core 0, so on entry core
   0's recorded environment is re-synced from the live machine state —
   without this, a driver-side prolog/epilog would be "undone" by the
   next hop to core 0. *)
let sync_core0 t =
  match t.lb with
  | None -> ()
  | Some lb -> t.core_envs.(0) <- Some (Lb.capture_env lb)

let main t f =
  ignore (spawn t ~root:true ~supervised:false f);
  sync_core0 t;
  schedule t

let kick t =
  sync_core0 t;
  schedule t

let blocked_count t = Queue.length t.blocked
let kill_count t = t.kill_count
let machine t = t.machine
let switch_count t = t.exec_switches
let affinity_hit_count t = t.affinity_hits
let core_count t = t.cores
let steal_count t = t.steal_count

let steals_by_core t = Array.copy t.steals_per_core
