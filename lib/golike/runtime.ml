module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel
module Objfile = Encl_elf.Objfile
module Linker = Encl_elf.Linker
module Image = Encl_elf.Image
module Enclosure = Encl_enclosure.Enclosure

type t = {
  machine : Machine.t;
  lb : Lb.t option;
  image : Image.t;
  sched : Sched.t;
  galloc : Galloc.t;
  mutable pkg_stack : string list;
}

type pkgdef = {
  pd_obj : Objfile.t;
  pd_init : (t -> unit) option;
}

let package name ?(imports = []) ?(functions = []) ?(globals = [])
    ?(constants = []) ?(enclosures = []) ?init () =
  let syms l = List.map (fun (n, size) -> Objfile.sym n size) l in
  let init_syms l = List.map (fun (n, size, init) -> Objfile.sym ?init n size) l in
  {
    pd_obj =
      Objfile.make ~pkg:name ~imports ~functions:(syms functions)
        ~globals:(init_syms globals) ~constants:(init_syms constants)
        ~enclosures ~has_init:(init <> None) ();
    pd_init = init;
  }

type config = {
  backend : Lb.backend option;
  costs : Costs.t;
  clustering : bool;
  cores : int;
}

(* Default core count: ENCL_CORES (the CI matrix's knob), else 1.
   Read once per config construction so a test can still override the
   field explicitly — the bench harness always pins it. *)
let default_cores () =
  match Sys.getenv_opt "ENCL_CORES" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> 1)
  | None -> 1

let baseline =
  {
    backend = None;
    costs = Costs.default;
    clustering = true;
    cores = default_cores ();
  }

let with_backend b =
  {
    backend = Some b;
    costs = Costs.default;
    clustering = true;
    cores = default_cores ();
  }

let validate_policies packages =
  let rec check_pkgs = function
    | [] -> Ok ()
    | pd :: rest -> (
        let rec check_encs = function
          | [] -> check_pkgs rest
          | (e : Objfile.enclosure_decl) :: more -> (
              match Enclosure.check_policy e.Objfile.enc_policy with
              | Ok () -> check_encs more
              | Error err ->
                  Error
                    (Printf.sprintf "compile: enclosure %s in %s: %s"
                       e.Objfile.enc_name pd.pd_obj.Objfile.pkg err))
        in
        check_encs pd.pd_obj.Objfile.enclosures)
  in
  check_pkgs packages

let boot config ~packages ~entry =
  match validate_policies packages with
  | Error e -> Error e
  | Ok () -> (
      match
        Linker.link ~objfiles:(List.map (fun p -> p.pd_obj) packages) ~entry
      with
      | Error e -> Error (Linker.error_message e)
      | Ok image -> (
          let machine =
            Machine.create ~costs:config.costs ~cores:config.cores ()
          in
          let lb_result =
            match config.backend with
            | None -> (
                (* Baseline still loads the image so symbols are usable. *)
                match Encl_litterbox.Loader.load machine image with
                | Ok () -> Ok None
                | Error e -> Error e)
            | Some backend -> (
                match
                  Lb.init ~machine ~backend ~image ~clustering:config.clustering ()
                with
                | Ok lb -> Ok (Some lb)
                | Error e -> Error e)
          in
          match lb_result with
          | Error e -> Error e
          | Ok lb ->
              let galloc = Galloc.create ~machine ~lb () in
              let sched = Sched.create ~machine ~lb () in
              let t = { machine; lb; image; sched; galloc; pkg_stack = [ entry ] } in
              (* Package init functions, dependencies first. *)
              let rec run_inits = function
                | [] -> ()
                | pkg :: rest ->
                    (match
                       List.find_opt (fun p -> p.pd_obj.Objfile.pkg = pkg) packages
                     with
                    | Some { pd_init = Some init; _ } -> init t
                    | Some _ | None -> ());
                    run_inits rest
              in
              run_inits image.Image.init_order;
              Ok t))

let machine t = t.machine
let lb t = t.lb
let image t = t.image
let sched t = t.sched
let galloc t = t.galloc
let clock t = t.machine.Machine.clock

let symbol_addr t ~pkg name =
  match Image.find_symbol t.image ~pkg name with
  | Some s -> s.Image.ps_addr
  | None -> invalid_arg (Printf.sprintf "unknown symbol %s.%s" pkg name)

let global t ~pkg name =
  match Image.find_symbol t.image ~pkg name with
  | Some s -> { Gbuf.addr = s.Image.ps_addr; len = s.Image.ps_size }
  | None -> invalid_arg (Printf.sprintf "unknown symbol %s.%s" pkg name)

(* Function-call entry cost, ns. *)
let call_entry_ns = 4

let in_function t ~pkg ~fn body =
  let addr = symbol_addr t ~pkg fn in
  Cpu.fetch t.machine.Machine.cpu ~addr;
  Clock.consume t.machine.Machine.clock Clock.Compute call_entry_ns;
  t.pkg_stack <- pkg :: t.pkg_stack;
  Fun.protect
    ~finally:(fun () ->
      match t.pkg_stack with
      | _ :: rest -> t.pkg_stack <- rest
      | [] -> ())
    body

let current_pkg t = match t.pkg_stack with p :: _ -> p | [] -> "main"

let alloc_in t ~pkg size = { Gbuf.addr = Galloc.alloc t.galloc ~pkg size; len = size }
let alloc t size = alloc_in t ~pkg:(current_pkg t) size

let syscall t call =
  match t.lb with
  | Some lb -> Lb.syscall lb call
  | None -> K.syscall t.machine.Machine.kernel call

let syscall_exn t call =
  match syscall t call with
  | Ok v -> v
  | Error e ->
      failwith
        (Printf.sprintf "syscall %s failed: %s"
           (Encl_kernel.Sysno.name (K.sysno_of_call call))
           (K.errno_name e))

(* Ring-based net path. With the ring on, the call is enqueued on the
   kernel's submission ring without a privilege crossing; a fiber then
   parks on the completion and the scheduler's drain point flushes the
   whole batch in one crossing once every fiber has suspended. Outside
   a fiber the await drains immediately. Either way the caller observes
   exactly the direct path's result or exception. Ring off: this IS
   {!syscall}. *)
let syscall_batched t call =
  if Sysring.enabled () then begin
    let kernel = t.machine.Machine.kernel in
    let c = K.ring_submit kernel call in
    if (not (K.completion_ready c)) && Sched.in_fiber t.sched then
      Sched.wait_until t.sched (fun () -> K.completion_ready c);
    K.ring_await kernel c
  end
  else syscall t call

(* Fire-and-forget submission for calls whose result the caller ignores
   (epoll_ctl, clock_gettime, futex wakeups...): enqueue and keep
   running; the entry completes at the next drain point. *)
let syscall_nowait t call =
  if Sysring.enabled () then
    ignore (K.ring_submit t.machine.Machine.kernel call)
  else ignore (syscall t call)

(* The rx view ring. The arena is ordinary heap memory allocated in
   [netring_pkg], so mallocgc's transfer_range hands the spans to that
   package exactly like any other allocation — an enclosure whose policy
   grants "netring:R" can read descriptors in place, and a write to one
   faults through the normal view check on every backend. *)
let netring_pkg = "netring"

type netring = { nr_base : int; nr_slots : int; nr_slot_bytes : int }

let attach_netring t ?(slots = 16) ?(slot_bytes = (16 * 1024) + K.ring_hdr_bytes)
    () =
  if slots <= 0 || slot_bytes <= K.ring_hdr_bytes then
    invalid_arg "attach_netring: bad geometry";
  let buf = alloc_in t ~pkg:netring_pkg (slots * slot_bytes) in
  K.attach_rxring t.machine.Machine.kernel ~base:buf.Gbuf.addr ~slots
    ~slot_bytes;
  { nr_base = buf.Gbuf.addr; nr_slots = slots; nr_slot_bytes = slot_bytes }

let netring_recv t ring ~fd =
  match syscall t (K.Recv_ring { fd }) with
  | Error e -> Error e
  | Ok 0 -> Ok None
  | Ok sp ->
      let slot = sp - 1 in
      let base = ring.nr_base + (slot * ring.nr_slot_bytes) in
      (* The header read happens in the caller's environment: an
         enclosure without R on the ring arena faults right here. *)
      let len = Int64.to_int (Cpu.read64 t.machine.Machine.cpu base) in
      Ok (Some (slot, { Gbuf.addr = base + K.ring_hdr_bytes; len }))

let netring_consume t slot = K.ring_consume t.machine.Machine.kernel slot

let with_enclosure t name body =
  match t.lb with
  | None ->
      (* Vanilla closure call (the paper's Baseline configuration). *)
      Clock.consume t.machine.Machine.clock Clock.Compute
        t.machine.Machine.costs.Costs.closure_call;
      body ()
  | Some lb -> Enclosure.call (Enclosure.declare lb ~name body)

let go t f = Sched.go t.sched f
let go_supervised t f = Sched.spawn_supervised t.sched f
let fiber_result t fid = Sched.result t.sched fid
let yield t = Sched.yield t.sched
let run_main t f = Sched.main t.sched f
let kick t = Sched.kick t.sched

let absorb_fault t e =
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

(* GC pass cost per live span, ns. *)
let gc_span_ns = 210

let gc t =
  let spans =
    List.fold_left
      (fun acc pkg -> acc + Galloc.spans_of t.galloc ~pkg)
      0
      (Encl_pkg.Graph.packages t.image.Image.graph)
  in
  let obs = t.machine.Machine.obs in
  let t0 = Clock.now t.machine.Machine.clock in
  let work () =
    (* The collection itself is a Gc span in the trusted lane; the
       excursion's switch costs stay with the requesting enclosure
       (spanned inside [Lb.with_trusted]). *)
    let sp =
      if Encl_obs.Obs.enabled obs then
        Encl_obs.Obs.span_enter obs ~lane:"trusted" ~name:"gc"
          ~category:Encl_obs.Span.Gc ()
      else -1
    in
    Clock.consume t.machine.Machine.clock Clock.Gc (gc_span_ns * max 1 spans);
    Encl_obs.Obs.span_exit obs sp
  in
  (match t.lb with None -> work () | Some lb -> Lb.with_trusted lb work);
  if Encl_obs.Obs.enabled obs then begin
    let dur = Clock.now t.machine.Machine.clock - t0 in
    Encl_obs.Obs.incr obs ~scope:"trusted" "gc";
    Encl_obs.Obs.observe obs ~scope:"trusted" "gc_ns" dur;
    Encl_obs.Obs.emit obs ~dur (Encl_obs.Event.Gc { spans })
  end

let stats t =
  let k = t.machine.Machine.kernel in
  Printf.sprintf "clock=%dns syscalls=%d%s" (Clock.now (clock t)) (K.syscall_count k)
    (match t.lb with
    | None -> " (baseline)"
    | Some lb ->
        Printf.sprintf " switches=%d transfers=%d faults=%d" (Lb.switch_count lb)
          (Lb.transfer_count lb) (Lb.fault_count lb))
