(* Tests for the simulated OS: BPF, seccomp, VFS, network, dispatcher. *)

module Sysno = Encl_kernel.Sysno
module Bpf = Encl_kernel.Bpf
module Seccomp = Encl_kernel.Seccomp
module Vfs = Encl_kernel.Vfs
module Net = Encl_kernel.Net
module K = Encl_kernel.Kernel
module Machine = Encl_litterbox.Machine

(* ------------------------------------------------------------------ *)
(* Sysno *)

let sysno_tests =
  [
    Alcotest.test_case "numbers are unique" `Quick (fun () ->
        let nums = List.map Sysno.number Sysno.all in
        Alcotest.(check int) "no collisions"
          (List.length nums)
          (List.length (List.sort_uniq compare nums)));
    Alcotest.test_case "of_number inverts number" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) (Sysno.name s) true
              (Sysno.of_number (Sysno.number s) = Some s))
          Sysno.all);
    Alcotest.test_case "category names roundtrip" `Quick (fun () ->
        List.iter
          (fun c ->
            Alcotest.(check bool) (Sysno.category_name c) true
              (Sysno.category_of_name (Sysno.category_name c) = Some c))
          Sysno.all_categories);
    Alcotest.test_case "socket ops are net" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) (Sysno.name s) true (Sysno.category s = Sysno.Cat_net))
          [ Sysno.Socket; Sysno.Connect; Sysno.Accept; Sysno.Sendto; Sysno.Recvfrom ]);
  ]

(* ------------------------------------------------------------------ *)
(* BPF *)

let data ?(args = [||]) ?(pkru = 0l) nr = Bpf.make_data ~nr ~args ~pkru ()

let bpf_tests =
  [
    Alcotest.test_case "trivial allow" `Quick (fun () ->
        let prog = [| Bpf.Ret Bpf.Allow |] in
        Bpf.validate prog;
        Alcotest.(check bool) "allow" true (Bpf.run prog (data 0) = Bpf.Allow));
    Alcotest.test_case "jeq branches" `Quick (fun () ->
        let prog =
          [|
            Bpf.Ld Bpf.F_nr;
            Bpf.Jeq (42, 0, 1);
            Bpf.Ret Bpf.Allow;
            Bpf.Ret Bpf.Kill;
          |]
        in
        Bpf.validate prog;
        Alcotest.(check bool) "42 allowed" true (Bpf.run prog (data 42) = Bpf.Allow);
        Alcotest.(check bool) "43 killed" true (Bpf.run prog (data 43) = Bpf.Kill));
    Alcotest.test_case "pkru field visible" `Quick (fun () ->
        let prog =
          [|
            Bpf.Ld Bpf.F_pkru;
            Bpf.Jeq (0x55, 0, 1);
            Bpf.Ret Bpf.Allow;
            Bpf.Ret Bpf.Kill;
          |]
        in
        Alcotest.(check bool) "match" true (Bpf.run prog (data ~pkru:0x55l 0) = Bpf.Allow);
        Alcotest.(check bool) "no match" true (Bpf.run prog (data ~pkru:0l 0) = Bpf.Kill));
    Alcotest.test_case "validator rejects backward jumps" `Quick (fun () ->
        match Bpf.validate [| Bpf.Jmp (-1); Bpf.Ret Bpf.Allow |] with
        | exception Bpf.Bad_program _ -> ()
        | () -> Alcotest.fail "backward jump accepted");
    Alcotest.test_case "validator rejects fallthrough" `Quick (fun () ->
        match Bpf.validate [| Bpf.Ld Bpf.F_nr |] with
        | exception Bpf.Bad_program _ -> ()
        | () -> Alcotest.fail "fallthrough accepted");
    Alcotest.test_case "validator rejects empty" `Quick (fun () ->
        match Bpf.validate [||] with
        | exception Bpf.Bad_program _ -> ()
        | () -> Alcotest.fail "empty accepted");
    Alcotest.test_case "alu ops" `Quick (fun () ->
        let prog =
          [|
            Bpf.Ld (Bpf.F_arg 0);
            Bpf.Alu_and 0xF0;
            Bpf.Alu_rsh 4;
            Bpf.Jeq (0xA, 0, 1);
            Bpf.Ret Bpf.Allow;
            Bpf.Ret Bpf.Kill;
          |]
        in
        Alcotest.(check bool) "0xA5 -> allow" true
          (Bpf.run prog (data ~args:[| 0xA5 |] 0) = Bpf.Allow));
    Alcotest.test_case "run_count counts" `Quick (fun () ->
        let prog = [| Bpf.Ld Bpf.F_nr; Bpf.Ret Bpf.Allow |] in
        Alcotest.(check bool) "2 steps" true (snd (Bpf.run_count prog (data 0)) = 2));
  ]

(* ------------------------------------------------------------------ *)
(* Seccomp (compiler + dispatch) *)

let seccomp_tests =
  let pkru_a = 0x10l and pkru_b = 0x44l in
  let filter =
    Seccomp.compile ~trusted_pkrus:[ Mpk.pkru_all_access ]
      [
        { Seccomp.pkru = pkru_a; rules = [ Seccomp.rule Sysno.Getuid ] };
        {
          Seccomp.pkru = pkru_b;
          rules =
            [
              Seccomp.rule Sysno.Sendto;
              Seccomp.rule ~arg0:[ 101; 102 ] Sysno.Connect;
            ];
        };
      ]
  in
  let check nr ?(args = [||]) pkru expected =
    Alcotest.(check bool) "action" true
      (Bpf.run filter (Bpf.make_data ~nr:(Sysno.number nr) ~args ~pkru ()) = expected)
  in
  [
    Alcotest.test_case "trusted pkru allowed everything" `Quick (fun () ->
        check Sysno.Open Mpk.pkru_all_access Bpf.Allow;
        check Sysno.Socket Mpk.pkru_all_access Bpf.Allow);
    Alcotest.test_case "env whitelist enforced" `Quick (fun () ->
        check Sysno.Getuid pkru_a Bpf.Allow;
        check Sysno.Open pkru_a Bpf.Kill;
        check Sysno.Sendto pkru_b Bpf.Allow;
        check Sysno.Getuid pkru_b Bpf.Kill);
    Alcotest.test_case "unknown pkru killed" `Quick (fun () ->
        check Sysno.Getuid 0x99l Bpf.Kill);
    Alcotest.test_case "connect arg0 list" `Quick (fun () ->
        check Sysno.Connect ~args:[| 101 |] pkru_b Bpf.Allow;
        check Sysno.Connect ~args:[| 102 |] pkru_b Bpf.Allow;
        check Sysno.Connect ~args:[| 666 |] pkru_b Bpf.Kill);
    Alcotest.test_case "trusted branch decides fast" `Quick (fun () ->
        let _, steps =
          Bpf.run_count filter
            (Bpf.make_data ~nr:(Sysno.number Sysno.Open) ~pkru:Mpk.pkru_all_access ())
        in
        Alcotest.(check bool) "<= 4 steps" true (steps <= 4));
    Alcotest.test_case "install validates" `Quick (fun () ->
        let s = Seccomp.create () in
        Alcotest.(check bool) "bad prog refused" true
          (Result.is_error (Seccomp.install s [| Bpf.Ld Bpf.F_nr |]));
        Alcotest.(check bool) "not installed" false (Seccomp.installed s));
    Alcotest.test_case "assembler rejects unknown label" `Quick (fun () ->
        match Seccomp.Asm.assemble [ Seccomp.Asm.Jmp_lbl "nowhere" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "unknown label accepted");
  ]

(* Property: the compiled seccomp program agrees with a reference
   evaluator on random (env, syscall) pairs. *)
let seccomp_props =
  let gen =
    QCheck.make
      QCheck.Gen.(
        pair (int_range 0 3)
          (pair (int_range 0 (List.length Sysno.all - 1)) (int_range 0 200)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compiled filter = reference semantics" ~count:300 gen
         (fun (env_idx, (sys_idx, arg0)) ->
           let sysno = List.nth Sysno.all sys_idx in
           let envs =
             [
               (0x04l, [ Seccomp.rule Sysno.Getuid; Seccomp.rule Sysno.Read ]);
               (0x10l, List.map (fun s -> Seccomp.rule s) Sysno.all);
               (0x40l, [ Seccomp.rule ~arg0:[ 7; 9 ] Sysno.Connect ]);
               (0x44l, []);
             ]
           in
           let prog =
             Seccomp.compile ~trusted_pkrus:[ Mpk.pkru_all_access ]
               (List.map (fun (pkru, rules) -> { Seccomp.pkru; rules }) envs)
           in
           let pkru, rules = List.nth envs env_idx in
           let reference =
             List.exists
               (fun (r : Seccomp.rule) ->
                 r.Seccomp.sysno = sysno
                 && match r.Seccomp.arg0_allowed with
                    | None -> true
                    | Some ips -> List.mem arg0 ips)
               rules
           in
           let actual =
             Bpf.run prog
               (Bpf.make_data ~nr:(Sysno.number sysno) ~args:[| arg0 |] ~pkru ())
             = Bpf.Allow
           in
           actual = reference));
  ]

(* ------------------------------------------------------------------ *)
(* VFS *)

let vfs_tests =
  [
    Alcotest.test_case "create, read back" `Quick (fun () ->
        let fs = Vfs.create () in
        Alcotest.(check bool) "create" true
          (Result.is_ok (Vfs.create_file fs "/a.txt" (Bytes.of_string "hello")));
        Alcotest.(check bytes) "contents" (Bytes.of_string "hello")
          (Result.get_ok (Vfs.read_file fs "/a.txt")));
    Alcotest.test_case "mkdir_p and nested files" `Quick (fun () ->
        let fs = Vfs.create () in
        Alcotest.(check bool) "mkdir_p" true (Result.is_ok (Vfs.mkdir_p fs "/x/y/z"));
        Alcotest.(check bool) "file" true
          (Result.is_ok (Vfs.create_file fs "/x/y/z/f" (Bytes.of_string "deep")));
        Alcotest.(check bool) "exists" true (Vfs.exists fs "/x/y/z/f"));
    Alcotest.test_case "missing path is ENOENT" `Quick (fun () ->
        let fs = Vfs.create () in
        Alcotest.(check bool) "enoent" true (Vfs.read_file fs "/nope" = Error Vfs.Enoent));
    Alcotest.test_case "write_at grows" `Quick (fun () ->
        let fs = Vfs.create () in
        ignore (Vfs.create_file fs "/f" Bytes.empty);
        ignore (Vfs.write_at fs "/f" ~off:4 (Bytes.of_string "abcd"));
        let s = Result.get_ok (Vfs.stat fs "/f") in
        Alcotest.(check int) "size" 8 s.Vfs.size);
    Alcotest.test_case "append" `Quick (fun () ->
        let fs = Vfs.create () in
        ignore (Vfs.create_file fs "/f" (Bytes.of_string "ab"));
        ignore (Vfs.append fs "/f" (Bytes.of_string "cd"));
        Alcotest.(check bytes) "abcd" (Bytes.of_string "abcd")
          (Result.get_ok (Vfs.read_file fs "/f")));
    Alcotest.test_case "read_at windows" `Quick (fun () ->
        let fs = Vfs.create () in
        ignore (Vfs.create_file fs "/f" (Bytes.of_string "0123456789"));
        Alcotest.(check bytes) "mid" (Bytes.of_string "345")
          (Result.get_ok (Vfs.read_at fs "/f" ~off:3 ~len:3));
        Alcotest.(check bytes) "tail clamp" (Bytes.of_string "89")
          (Result.get_ok (Vfs.read_at fs "/f" ~off:8 ~len:10)));
    Alcotest.test_case "unlink and rmdir rules" `Quick (fun () ->
        let fs = Vfs.create () in
        ignore (Vfs.mkdir fs "/d");
        ignore (Vfs.create_file fs "/d/f" Bytes.empty);
        Alcotest.(check bool) "rmdir non-empty" true (Vfs.rmdir fs "/d" = Error Vfs.Einval);
        Alcotest.(check bool) "unlink dir fails" true (Vfs.unlink fs "/d" = Error Vfs.Eisdir);
        Alcotest.(check bool) "unlink file" true (Result.is_ok (Vfs.unlink fs "/d/f"));
        Alcotest.(check bool) "rmdir empty" true (Result.is_ok (Vfs.rmdir fs "/d")));
    Alcotest.test_case "readdir sorted" `Quick (fun () ->
        let fs = Vfs.create () in
        ignore (Vfs.create_file fs "/b" Bytes.empty);
        ignore (Vfs.create_file fs "/a" Bytes.empty);
        ignore (Vfs.mkdir fs "/c");
        Alcotest.(check (list string)) "entries" [ "a"; "b"; "c" ]
          (Result.get_ok (Vfs.readdir fs "/")));
    Alcotest.test_case "relative paths rejected" `Quick (fun () ->
        let fs = Vfs.create () in
        Alcotest.(check bool) "einval" true (Vfs.read_file fs "nope" = Error Vfs.Einval));
  ]

(* ------------------------------------------------------------------ *)
(* Net *)

let net_tests =
  [
    Alcotest.test_case "addr parsing" `Quick (fun () ->
        Alcotest.(check int) "loopback" Net.loopback (Net.addr_of_string "127.0.0.1");
        Alcotest.(check string) "roundtrip" "10.1.2.3"
          (Net.string_of_addr (Net.addr_of_string "10.1.2.3"));
        match Net.addr_of_string "999.1.1.1" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "bad addr accepted");
    Alcotest.test_case "listen / client_connect / stream" `Quick (fun () ->
        let net = Net.create () in
        let l = Result.get_ok (Net.listen net ~port:80) in
        let client = Result.get_ok (Net.client_connect net ~port:80) in
        let server = Option.get (Net.accept net l) in
        ignore (Net.send net client (Bytes.of_string "ping"));
        (match Net.recv net server 16 with
        | Net.Data d -> Alcotest.(check bytes) "ping" (Bytes.of_string "ping") d
        | _ -> Alcotest.fail "no data");
        ignore (Net.send net server (Bytes.of_string "pong"));
        match Net.recv net client 16 with
        | Net.Data d -> Alcotest.(check bytes) "pong" (Bytes.of_string "pong") d
        | _ -> Alcotest.fail "no reply");
    Alcotest.test_case "recv would-block then eof" `Quick (fun () ->
        let net = Net.create () in
        let l = Result.get_ok (Net.listen net ~port:81) in
        let client = Result.get_ok (Net.client_connect net ~port:81) in
        let server = Option.get (Net.accept net l) in
        Alcotest.(check bool) "would block" true (Net.recv net server 4 = Net.Would_block);
        Net.close_ep net client;
        Alcotest.(check bool) "eof" true (Net.recv net server 4 = Net.Eof));
    Alcotest.test_case "remote host records and responds" `Quick (fun () ->
        let net = Net.create () in
        let r =
          Net.register_remote net ~ip:(Net.addr_of_string "9.9.9.9") ~port:443
            ~respond:(fun b -> [ Bytes.of_string ("ack:" ^ Bytes.to_string b) ])
            "collector"
        in
        let ep = Result.get_ok (Net.connect net ~ip:(Net.addr_of_string "9.9.9.9") ~port:443) in
        ignore (Net.send net ep (Bytes.of_string "secret"));
        Alcotest.(check bytes) "recorded" (Bytes.of_string "secret") (Net.remote_received r);
        match Net.recv net ep 64 with
        | Net.Data d -> Alcotest.(check bytes) "ack" (Bytes.of_string "ack:secret") d
        | _ -> Alcotest.fail "no ack");
    Alcotest.test_case "connect refused without listener or route" `Quick (fun () ->
        let net = Net.create () in
        Alcotest.(check bool) "loopback refused" true
          (Result.is_error (Net.connect net ~ip:Net.loopback ~port:9));
        Alcotest.(check bool) "no route" true
          (Result.is_error (Net.connect net ~ip:(Net.addr_of_string "8.8.8.8") ~port:9)));
    Alcotest.test_case "readable peek is non-consuming" `Quick (fun () ->
        let net = Net.create () in
        let l = Result.get_ok (Net.listen net ~port:82) in
        let client = Result.get_ok (Net.client_connect net ~port:82) in
        let server = Option.get (Net.accept net l) in
        Alcotest.(check bool) "idle" false (Net.readable net server);
        ignore (Net.send net client (Bytes.of_string "x"));
        Alcotest.(check bool) "readable" true (Net.readable net server);
        Alcotest.(check bool) "still there" true (Net.recv net server 1 <> Net.Would_block));
  ]

(* The socket data path against a reference byte queue: random sends
   (0 to 16 bytes, one queued chunk each) and receives (0 to 48 bytes,
   up to three chunks) interleave, with or without short reads and
   writes injected. What arrives must be what was accepted, in order,
   and no receive may return more than it asked for. *)
type net_op = Send_op of int | Recv_op of int

let net_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Send_op n) (int_range 0 16);
        map (fun n -> Recv_op n) (int_range 0 48);
      ])

let print_net_op = function
  | Send_op n -> Printf.sprintf "send %d" n
  | Recv_op n -> Printf.sprintf "recv %d" n

let stream_arb =
  QCheck.make
    ~print:(fun (faulty, seed, ops) ->
      Printf.sprintf "faulty=%b seed=%d [%s]" faulty seed
        (String.concat "; " (List.map print_net_op ops)))
    QCheck.Gen.(triple bool (int_range 0 1000) (list_size (int_range 1 60) net_op_gen))

let stream_matches (faulty, seed, ops) =
  let net = Net.create () in
  if faulty then begin
    let inj = Encl_fault.Fault.create ~seed:(Int64.of_int seed) () in
    Net.set_injector net inj;
    Encl_fault.Fault.arm_plan inj
      [
        Encl_fault.Fault.rule ~prob:0.5 "net.partial_read";
        Encl_fault.Fault.rule ~prob:0.5 "net.partial_write";
      ]
  end;
  let l = Result.get_ok (Net.listen net ~port:7) in
  let client = Result.get_ok (Net.client_connect net ~port:7) in
  let server = Option.get (Net.accept net l) in
  let sent = Buffer.create 256 and got = Buffer.create 256 in
  let next = ref 0 in
  let recv n =
    let queued = Buffer.length sent - Buffer.length got in
    match Net.recv net server n with
    | Net.Data d ->
        let len = Bytes.length d in
        if len > max n 0 then QCheck.Test.fail_reportf "recv %d returned %d bytes" n len;
        if (not faulty) && len <> min (max n 0) queued then
          QCheck.Test.fail_reportf "recv %d with %d queued returned %d bytes" n queued len;
        Buffer.add_bytes got d;
        len > 0
    | Net.Would_block ->
        if queued > 0 then QCheck.Test.fail_reportf "would block with %d queued" queued;
        false
    | Net.Eof -> QCheck.Test.fail_reportf "eof on an open stream"
  in
  List.iter
    (function
      | Send_op k -> (
          let data =
            Bytes.init k (fun _ ->
                incr next;
                Char.chr (!next mod 251))
          in
          match Net.send net client data with
          | Ok m -> Buffer.add_subbytes sent data 0 m
          | Error e -> QCheck.Test.fail_reportf "send: %s" e)
      | Recv_op n -> ignore (recv n))
    ops;
  while recv 48 do
    ()
  done;
  Buffer.contents got = Buffer.contents sent

let net_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"stream delivers the sent bytes in order" ~count:500
         stream_arb stream_matches);
  ]

(* ------------------------------------------------------------------ *)
(* Kernel dispatcher *)

let kernel_fixture () = Machine.create ()

(* A guest socket accepted from an outside client: the machine, the
   guest's fd, the client's endpoint and one mapped user page. *)
let connected_fixture () =
  let m = kernel_fixture () in
  let k = m.Machine.kernel in
  let lfd = Result.get_ok (K.syscall k K.Socket) in
  ignore (K.syscall k (K.Bind { fd = lfd; port = 4321 }));
  ignore (K.syscall k (K.Listen lfd));
  let client = Result.get_ok (Net.client_connect m.Machine.net ~port:4321) in
  let fd = Result.get_ok (K.syscall k (K.Accept lfd)) in
  let buf = Encl_kernel.Mm.map m.Machine.mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
  (m, fd, client, buf)

let kernel_tests =
  [
    Alcotest.test_case "identity syscalls" `Quick (fun () ->
        let m = kernel_fixture () in
        Alcotest.(check bool) "getuid" true (K.syscall m.Machine.kernel K.Getuid = Ok 1000);
        Alcotest.(check bool) "getpid" true (K.syscall m.Machine.kernel K.Getpid = Ok 4217));
    Alcotest.test_case "file io via syscalls + user buffers" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let buf = Encl_kernel.Mm.map m.Machine.mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        ignore (Vfs.create_file m.Machine.vfs "/data" (Bytes.of_string "content!"));
        let fd = Result.get_ok (K.syscall k (K.Open { path = "/data"; flags = [ K.O_rdonly ] })) in
        let n = Result.get_ok (K.syscall k (K.Read { fd; buf; len = 64 })) in
        Alcotest.(check int) "read len" 8 n;
        let got = Cpu.read_bytes m.Machine.cpu ~addr:buf ~len:n in
        Alcotest.(check bytes) "content" (Bytes.of_string "content!") got;
        Alcotest.(check bool) "close" true (K.syscall k (K.Close fd) = Ok 0);
        Alcotest.(check bool) "read after close" true
          (K.syscall k (K.Read { fd; buf; len = 4 }) = Error K.Ebadf));
    Alcotest.test_case "open flags" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        Alcotest.(check bool) "missing, no creat" true
          (K.syscall k (K.Open { path = "/nope"; flags = [ K.O_rdonly ] }) = Error K.Enoent);
        Alcotest.(check bool) "creat" true
          (Result.is_ok (K.syscall k (K.Open { path = "/new"; flags = [ K.O_wronly; K.O_creat ] })));
        Alcotest.(check bool) "created" true (Vfs.exists m.Machine.vfs "/new"));
    Alcotest.test_case "mmap returns fresh writable memory" `Quick (fun () ->
        let m = kernel_fixture () in
        let addr = Result.get_ok (K.syscall m.Machine.kernel (K.Mmap { len = 8192 })) in
        Cpu.write8 m.Machine.cpu addr 7;
        Alcotest.(check int) "rw" 7 (Cpu.read8 m.Machine.cpu addr);
        Alcotest.(check bool) "munmap" true
          (K.syscall m.Machine.kernel (K.Munmap { addr; len = 8192 }) = Ok 0));
    Alcotest.test_case "socket lifecycle via syscalls" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let fd = Result.get_ok (K.syscall k K.Socket) in
        Alcotest.(check bool) "bind" true (K.syscall k (K.Bind { fd; port = 1234 }) = Ok 0);
        Alcotest.(check bool) "listen" true (K.syscall k (K.Listen fd) = Ok 0);
        Alcotest.(check bool) "accept empty" true (K.syscall k (K.Accept fd) = Error K.Eagain);
        ignore (Result.get_ok (Net.client_connect m.Machine.net ~port:1234));
        Alcotest.(check bool) "pending" true (K.listener_pending k fd);
        Alcotest.(check bool) "accept" true (Result.is_ok (K.syscall k (K.Accept fd))));
    Alcotest.test_case "listen before bind fails" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let fd = Result.get_ok (K.syscall k K.Socket) in
        Alcotest.(check bool) "einval" true (K.syscall k (K.Listen fd) = Error K.Einval));
    Alcotest.test_case "trace counts syscalls" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        ignore (K.syscall k K.Getuid);
        ignore (K.syscall k K.Getuid);
        ignore (K.syscall k K.Getpid);
        Alcotest.(check int) "total" 3 (K.syscall_count k);
        Alcotest.(check int) "getuid" 2 (K.count_for k Sysno.Getuid);
        K.reset_stats k;
        Alcotest.(check int) "reset" 0 (K.syscall_count k));
    Alcotest.test_case "seccomp kill raises" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let prog = Seccomp.compile ~trusted_pkrus:[ 0x7777l ] [] in
        Alcotest.(check bool) "installed" true (Result.is_ok (K.install_seccomp k prog));
        (* current env has pkru 0 (all access), which is unknown. *)
        match K.syscall k K.Getuid with
        | exception K.Syscall_killed _ -> ()
        | _ -> Alcotest.fail "expected kill");
    Alcotest.test_case "pipe moves bytes between fds" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let rd = Result.get_ok (K.syscall k K.Pipe) in
        let wr = rd + 1 in
        let buf = Encl_kernel.Mm.map m.Machine.mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        Cpu.write_bytes m.Machine.cpu ~addr:buf (Bytes.of_string "through the pipe");
        let n = Result.get_ok (K.syscall k (K.Write { fd = wr; buf; len = 16 })) in
        Alcotest.(check int) "written" 16 n;
        let buf2 = buf + 1024 in
        let n2 = Result.get_ok (K.syscall k (K.Read { fd = rd; buf = buf2; len = 64 })) in
        Alcotest.(check int) "read" 16 n2;
        Alcotest.(check bytes) "payload" (Bytes.of_string "through the pipe")
          (Cpu.read_bytes m.Machine.cpu ~addr:buf2 ~len:16));
    Alcotest.test_case "dup shares the file offset" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        ignore (Vfs.create_file m.Machine.vfs "/f" (Bytes.of_string "abcdef"));
        let fd = Result.get_ok (K.syscall k (K.Open { path = "/f"; flags = [ K.O_rdonly ] })) in
        let fd2 = Result.get_ok (K.syscall k (K.Dup fd)) in
        let buf = Encl_kernel.Mm.map m.Machine.mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        ignore (Result.get_ok (K.syscall k (K.Read { fd; buf; len = 3 })));
        let n = Result.get_ok (K.syscall k (K.Read { fd = fd2; buf; len = 3 })) in
        Alcotest.(check int) "continued" 3 n;
        Alcotest.(check bytes) "second half" (Bytes.of_string "def")
          (Cpu.read_bytes m.Machine.cpu ~addr:buf ~len:3));
    Alcotest.test_case "lseek whence semantics" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        ignore (Vfs.create_file m.Machine.vfs "/f" (Bytes.of_string "0123456789"));
        let fd = Result.get_ok (K.syscall k (K.Open { path = "/f"; flags = [ K.O_rdonly ] })) in
        Alcotest.(check bool) "SET" true (K.syscall k (K.Lseek { fd; off = 4; whence = 0 }) = Ok 4);
        Alcotest.(check bool) "CUR" true (K.syscall k (K.Lseek { fd; off = 2; whence = 1 }) = Ok 6);
        Alcotest.(check bool) "END" true (K.syscall k (K.Lseek { fd; off = -1; whence = 2 }) = Ok 9);
        Alcotest.(check bool) "negative" true (K.syscall k (K.Lseek { fd; off = -99; whence = 0 }) = Error K.Einval);
        Alcotest.(check bool) "fstat" true (K.syscall k (K.Fstat fd) = Ok 10));
    Alcotest.test_case "getcwd copies the path" `Quick (fun () ->
        let m = kernel_fixture () in
        let k = m.Machine.kernel in
        let buf = Encl_kernel.Mm.map m.Machine.mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        Alcotest.(check bool) "ok" true (K.syscall k (K.Getcwd { buf; len = 64 }) = Ok 2);
        Alcotest.(check int) "slash" (Char.code '/') (Cpu.read8 m.Machine.cpu buf));
    Alcotest.test_case "negative lengths are EINVAL before any charge" `Quick (fun () ->
        let m, fd, client, buf = connected_fixture () in
        let k = m.Machine.kernel in
        ignore (Net.send m.Machine.net client (Bytes.of_string "queued"));
        ignore (Vfs.create_file m.Machine.vfs "/f" (Bytes.of_string "file"));
        let file = Result.get_ok (K.syscall k (K.Open { path = "/f"; flags = [ K.O_rdonly ] })) in
        let timed call =
          let t0 = Clock.now m.Machine.clock in
          let r = K.syscall k call in
          (r, Clock.now m.Machine.clock - t0)
        in
        (* getuid has no service cost: it charges the trap alone. *)
        let _, trap_only = timed K.Getuid in
        let copied = K.bytes_copied_count k in
        List.iter
          (fun (name, call) ->
            let r, dt = timed call in
            Alcotest.(check bool) (name ^ " einval") true (r = Error K.Einval);
            Alcotest.(check int) (name ^ " charges only the trap") trap_only dt)
          [
            ("read", K.Read { fd; buf; len = -1 });
            ("write", K.Write { fd; buf; len = -1 });
            ("send", K.Send { fd; buf; len = -1 });
            ("recv", K.Recv { fd; buf; len = -1 });
            ("getrandom", K.Getrandom { buf; len = -1 });
            ("sendfile", K.Sendfile { out_fd = fd; in_fd = file; off = 0; len = -1 });
          ];
        Alcotest.(check int) "nothing copied" copied (K.bytes_copied_count k);
        Alcotest.(check bool) "queued bytes untouched" true
          (K.syscall k (K.Recv { fd; buf; len = 64 }) = Ok 6));
    Alcotest.test_case "partial read never returns more than asked" `Quick (fun () ->
        let m, fd, client, buf = connected_fixture () in
        let k = m.Machine.kernel in
        ignore (Net.send m.Machine.net client (Bytes.of_string "hello"));
        Cpu.write_bytes m.Machine.cpu ~addr:buf (Bytes.of_string "z");
        Encl_fault.Fault.arm m.Machine.inject (Encl_fault.Fault.rule "net.partial_read");
        Alcotest.(check bool) "zero-length recv" true
          (K.syscall k (K.Recv { fd; buf; len = 0 }) = Ok 0);
        Alcotest.(check char) "buffer untouched" 'z' (Char.chr (Cpu.read8 m.Machine.cpu buf));
        Alcotest.(check bool) "one-byte recv" true
          (K.syscall k (K.Recv { fd; buf; len = 1 }) = Ok 1);
        Alcotest.(check char) "first byte" 'h' (Char.chr (Cpu.read8 m.Machine.cpu buf));
        Alcotest.(check bool) "half of what is queued" true
          (K.syscall k (K.Recv { fd; buf; len = 64 }) = Ok 2);
        Encl_fault.Fault.disarm_all m.Machine.inject;
        Alcotest.(check bool) "the rest" true (K.syscall k (K.Recv { fd; buf; len = 64 }) = Ok 2);
        Alcotest.(check bytes) "in order" (Bytes.of_string "lo")
          (Cpu.read_bytes m.Machine.cpu ~addr:buf ~len:2));
    Alcotest.test_case "send snapshots the user buffer" `Quick (fun () ->
        let m, fd, client, buf = connected_fixture () in
        let k = m.Machine.kernel in
        Cpu.write_bytes m.Machine.cpu ~addr:buf (Bytes.of_string "before");
        Alcotest.(check bool) "sent" true (K.syscall k (K.Send { fd; buf; len = 6 }) = Ok 6);
        Cpu.write_bytes m.Machine.cpu ~addr:buf (Bytes.of_string "AFTER!");
        match Net.recv m.Machine.net client 64 with
        | Net.Data d -> Alcotest.(check bytes) "as at send time" (Bytes.of_string "before") d
        | _ -> Alcotest.fail "no data");
    Alcotest.test_case "nanosleep advances simulated time" `Quick (fun () ->
        let m = kernel_fixture () in
        let t0 = Clock.now m.Machine.clock in
        ignore (K.syscall m.Machine.kernel (K.Nanosleep 5000));
        Alcotest.(check bool) "advanced" true (Clock.now m.Machine.clock - t0 >= 5000));
  ]

let mm_tests =
  [
    Alcotest.test_case "map/unmap roundtrip across page tables" `Quick (fun () ->
        let m = kernel_fixture () in
        let mm = m.Machine.mm in
        let second = Pagetable.clone m.Machine.trusted_pt ~name:"second" in
        Encl_kernel.Mm.add_pt mm second;
        let addr = Encl_kernel.Mm.map mm ~len:8192 ~perms:{ Pte.r = true; w = true; x = false } in
        Alcotest.(check bool) "mapped" true (Encl_kernel.Mm.is_mapped mm ~addr);
        Alcotest.(check bool) "in both tables" true
          (Pagetable.walk second ~vpn:(addr / Phys.page_size) <> None);
        Encl_kernel.Mm.unmap mm ~addr ~len:8192;
        Alcotest.(check bool) "gone" false (Encl_kernel.Mm.is_mapped mm ~addr);
        Alcotest.(check bool) "gone from clone" true
          (Pagetable.walk second ~vpn:(addr / Phys.page_size) = None));
    Alcotest.test_case "per-table protect" `Quick (fun () ->
        let m = kernel_fixture () in
        let mm = m.Machine.mm in
        let second = Pagetable.clone m.Machine.trusted_pt ~name:"second2" in
        Encl_kernel.Mm.add_pt mm second;
        let addr = Encl_kernel.Mm.map mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        Encl_kernel.Mm.protect mm ~pt:second ~addr ~len:4096
          { Pte.r = true; w = false; x = false };
        let vpn = addr / Phys.page_size in
        let trusted_pte = Option.get (Pagetable.walk m.Machine.trusted_pt ~vpn) in
        let second_pte = Option.get (Pagetable.walk second ~vpn) in
        Alcotest.(check bool) "trusted still writable" true trusted_pte.Pte.perms.Pte.w;
        Alcotest.(check bool) "second read-only" false second_pte.Pte.perms.Pte.w);
    Alcotest.test_case "page_span arithmetic" `Quick (fun () ->
        Alcotest.(check (pair int int)) "exact page" (0, 0)
          (Encl_kernel.Mm.page_span ~addr:0 ~len:4096);
        Alcotest.(check (pair int int)) "straddle" (0, 1)
          (Encl_kernel.Mm.page_span ~addr:4000 ~len:200);
        Alcotest.(check (pair int int)) "zero len counts one" (2, 2)
          (Encl_kernel.Mm.page_span ~addr:8192 ~len:0));
    Alcotest.test_case "double map rejected" `Quick (fun () ->
        let m = kernel_fixture () in
        let mm = m.Machine.mm in
        let addr = Encl_kernel.Mm.map mm ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } in
        match Encl_kernel.Mm.map_at mm ~addr ~len:4096 ~perms:{ Pte.r = true; w = true; x = false } with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "double map accepted");
  ]

let () =
  Alcotest.run "kernel"
    [
      ("sysno", sysno_tests);
      ("bpf", bpf_tests);
      ("seccomp", seccomp_tests @ seccomp_props);
      ("mm", mm_tests);
      ("vfs", vfs_tests);
      ("net", net_tests @ net_props);
      ("kernel", kernel_tests);
    ]
