(* Tests for the workload applications: minidb SQL engine, mux router,
   bild, the HTTP servers, the wiki app, the attack suite, the scenario
   registry and the tools' shared backend spellings. *)

module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Lb = Encl_litterbox.Litterbox
module Machine = Encl_litterbox.Machine
module Minidb = Encl_apps.Minidb
module Mux = Encl_apps.Mux
module Bild = Encl_apps.Bild
module Httpd = Encl_apps.Httpd
module Scenarios = Encl_apps.Scenarios
module Legacy = Encl_attack.Legacy
module Deps = Encl_apps.Deps
module Backend = Encl_litterbox.Backend
module Cli = Encl_cli.Cli
module K = Encl_kernel.Kernel
module Sched = Encl_golike.Sched

(* ------------------------------------------------------------------ *)
(* Minidb *)

let db_exec db sql =
  match Minidb.exec db sql with
  | Ok rows -> rows
  | Error e -> Alcotest.failf "%s: %s" sql e

let minidb_tests =
  [
    Alcotest.test_case "create, insert, select *" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a, b)");
        ignore (db_exec db "INSERT INTO t VALUES ('1', 'x')");
        ignore (db_exec db "INSERT INTO t VALUES ('2', 'y')");
        Alcotest.(check (list (list string))) "rows"
          [ [ "1"; "x" ]; [ "2"; "y" ] ]
          (db_exec db "SELECT * FROM t"));
    Alcotest.test_case "select with projection and where" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a, b)");
        ignore (db_exec db "INSERT INTO t VALUES ('1', 'x')");
        ignore (db_exec db "INSERT INTO t VALUES ('2', 'y')");
        Alcotest.(check (list (list string))) "projected"
          [ [ "y" ] ]
          (db_exec db "SELECT b FROM t WHERE a = '2'"));
    Alcotest.test_case "update with where" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a, b)");
        ignore (db_exec db "INSERT INTO t VALUES ('1', 'x')");
        ignore (db_exec db "INSERT INTO t VALUES ('2', 'y')");
        ignore (db_exec db "UPDATE t SET b = 'z' WHERE a = '1'");
        Alcotest.(check (list (list string))) "updated"
          [ [ "z" ] ]
          (db_exec db "SELECT b FROM t WHERE a = '1'");
        Alcotest.(check (list (list string))) "other row intact"
          [ [ "y" ] ]
          (db_exec db "SELECT b FROM t WHERE a = '2'"));
    Alcotest.test_case "delete" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a)");
        ignore (db_exec db "INSERT INTO t VALUES ('1')");
        ignore (db_exec db "INSERT INTO t VALUES ('2')");
        ignore (db_exec db "DELETE FROM t WHERE a = '1'");
        Alcotest.(check int) "one left" 1 (Option.get (Minidb.row_count db "t")));
    Alcotest.test_case "drop table" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a)");
        ignore (db_exec db "DROP TABLE t");
        Alcotest.(check (list string)) "gone" [] (Minidb.table_names db));
    Alcotest.test_case "errors" `Quick (fun () ->
        let db = Minidb.create () in
        let expect_err sql =
          Alcotest.(check bool) sql true (Result.is_error (Minidb.exec db sql))
        in
        expect_err "SELECT * FROM nope";
        ignore (db_exec db "CREATE TABLE t (a)");
        expect_err "CREATE TABLE t (a)";
        expect_err "INSERT INTO t VALUES ('1', '2')";
        expect_err "SELECT ghost FROM t";
        expect_err "FROBNICATE ALL THE THINGS";
        expect_err "SELECT * FROM t WHERE a = unquoted");
    Alcotest.test_case "values may contain keywords and spaces" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a)");
        ignore (db_exec db "INSERT INTO t VALUES ('SELECT * FROM secrets')");
        Alcotest.(check (list (list string))) "stored verbatim"
          [ [ "SELECT * FROM secrets" ] ]
          (db_exec db "SELECT * FROM t"));
    Alcotest.test_case "wire protocol roundtrip with partial chunks" `Quick (fun () ->
        let db = Minidb.create () in
        ignore (db_exec db "CREATE TABLE t (a)");
        ignore (db_exec db "INSERT INTO t VALUES ('v')");
        let req = Minidb.encode_request "SELECT * FROM t" in
        let half = Bytes.length req / 2 in
        let r1 = Minidb.wire_server db (Bytes.sub req 0 half) in
        Alcotest.(check int) "no reply yet" 0 (List.length r1);
        let r2 = Minidb.wire_server db (Bytes.sub req half (Bytes.length req - half)) in
        Alcotest.(check int) "one reply" 1 (List.length r2);
        Alcotest.(check (list (list string))) "decoded"
          [ [ "v" ] ]
          (Result.get_ok (Minidb.decode_response (List.hd r2))));
    Alcotest.test_case "wire errors decode as errors" `Quick (fun () ->
        let db = Minidb.create () in
        let replies = Minidb.wire_server db (Minidb.encode_request "GARBAGE") in
        Alcotest.(check bool) "error" true
          (Result.is_error (Minidb.decode_response (List.hd replies))));
  ]

(* Property: inserted rows always come back with SELECT *. *)
let minidb_props =
  let value_gen =
    QCheck.Gen.(
      map
        (String.map (fun c ->
             if c = '\'' || c = '\000' || c = '\n' || c = '\t' then '_' else c))
        (string_size (int_range 0 12)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"insert/select roundtrip" ~count:100
         (QCheck.make QCheck.Gen.(list_size (int_range 1 10) (pair value_gen value_gen)))
         (fun rows ->
           let db = Minidb.create () in
           ignore (db_exec db "CREATE TABLE t (a, b)");
           List.iter
             (fun (a, b) ->
               ignore
                 (db_exec db (Printf.sprintf "INSERT INTO t VALUES ('%s', '%s')" a b)))
             rows;
           db_exec db "SELECT * FROM t" = List.map (fun (a, b) -> [ a; b ]) rows));
  ]

(* ------------------------------------------------------------------ *)
(* Deps / Mux / Bild *)

let deps_tests =
  [
    Alcotest.test_case "tree links and reaches every package" `Quick (fun () ->
        let pkgs, root = Deps.tree ~prefix:"x" ~count:15 in
        let main =
          Runtime.package "main" ~imports:[ root ] ~functions:[ ("main", 32) ] ()
        in
        match Runtime.boot Runtime.baseline ~packages:(main :: pkgs) ~entry:"main" with
        | Error e -> Alcotest.fail e
        | Ok rt ->
            let g = (Runtime.image rt).Encl_elf.Image.graph in
            Alcotest.(check int) "all reachable" 15
              (List.length (Encl_pkg.Graph.natural_deps g "main")));
  ]

let mux_tests =
  [
    Alcotest.test_case "longest prefix and method match" `Quick (fun () ->
        let main =
          Runtime.package "main" ~imports:[ Mux.pkg ] ~functions:[ ("main", 32) ] ()
        in
        let rt =
          match
            Runtime.boot Runtime.baseline
              ~packages:(main :: Mux.packages ())
              ~entry:"main"
          with
          | Ok rt -> rt
          | Error e -> failwith e
        in
        let r = Mux.router rt in
        Mux.handle r ~meth:"GET" ~pattern:"/" `Root;
        Mux.handle r ~meth:"GET" ~pattern:"/page/" `Page;
        Mux.handle r ~meth:"POST" ~pattern:"/page/" `Create;
        Alcotest.(check bool) "page" true
          (Mux.route rt r ~meth:"GET" ~path:"/page/home" = Some `Page);
        Alcotest.(check bool) "root fallback" true
          (Mux.route rt r ~meth:"GET" ~path:"/other" = Some `Root);
        Alcotest.(check bool) "method" true
          (Mux.route rt r ~meth:"POST" ~path:"/page/x" = Some `Create);
        Alcotest.(check bool) "no match" true
          (Mux.route rt r ~meth:"PUT" ~path:"/page/x" = None));
  ]

let bild_tests =
  [
    Alcotest.test_case "invert inverts every byte" `Quick (fun () ->
        let r = Scenarios.bild None ~width:64 ~height:64 ~iters:1 () in
        (* 64*64*4 bytes of 0x55 inverted to 0xAA. *)
        Alcotest.(check int) "checksum" (64 * 64 * 4 * 0xAA) r.Scenarios.b_checksum);
    Alcotest.test_case "enclosed invert matches baseline output" `Quick (fun () ->
        let base = Scenarios.bild None ~width:32 ~height:32 ~iters:1 () in
        let mpk = Scenarios.bild (Some Lb.Mpk) ~width:32 ~height:32 ~iters:1 () in
        let vtx = Scenarios.bild (Some Lb.Vtx) ~width:32 ~height:32 ~iters:1 () in
        Alcotest.(check int) "mpk" base.Scenarios.b_checksum mpk.Scenarios.b_checksum;
        Alcotest.(check int) "vtx" base.Scenarios.b_checksum vtx.Scenarios.b_checksum);
    Alcotest.test_case "enclosure cannot write the shared image" `Quick (fun () ->
        let secrets = Runtime.package "secrets" ~functions:[ ("load", 32) ] () in
        let main =
          Runtime.package "main"
            ~imports:[ Bild.pkg; "secrets" ]
            ~functions:[ ("main", 64); ("body", 32) ]
            ~enclosures:
              [
                {
                  Encl_elf.Objfile.enc_name = "rcl";
                  enc_policy = "secrets:R; sys=none";
                  enc_closure = "body";
                  enc_deps = [ Bild.pkg ];
                };
              ]
            ()
        in
        let rt =
          Result.get_ok
            (Runtime.boot (Runtime.with_backend Lb.Mpk)
               ~packages:(main :: secrets :: Bild.packages ())
               ~entry:"main")
        in
        let image = Runtime.alloc_in rt ~pkg:"secrets" 4096 in
        match
          Runtime.with_enclosure rt "rcl" (fun () ->
              Gbuf.set (Runtime.machine rt) image 0 1)
        with
        | exception Cpu.Fault _ -> ()
        | () -> Alcotest.fail "read-only image was writable");
    Alcotest.test_case "grayscale averages rgb, preserves alpha" `Quick (fun () ->
        let rt =
          Result.get_ok
            (Runtime.boot Runtime.baseline
               ~packages:
                 (Runtime.package "main" ~imports:[ Bild.pkg ]
                    ~functions:[ ("main", 32) ] ()
                 :: Bild.packages ())
               ~entry:"main")
        in
        let m = Runtime.machine rt in
        let src = Runtime.alloc_in rt ~pkg:"main" (4 * 4) in
        (* one row of 4 pixels: r,g,b,a = 10,20,30,40 *)
        for p = 0 to 3 do
          Gbuf.set m src (4 * p) 10;
          Gbuf.set m src ((4 * p) + 1) 20;
          Gbuf.set m src ((4 * p) + 2) 30;
          Gbuf.set m src ((4 * p) + 3) 40
        done;
        let out = Bild.grayscale rt ~src ~width:4 ~height:1 in
        Alcotest.(check int) "r" 20 (Gbuf.get m out 0);
        Alcotest.(check int) "g" 20 (Gbuf.get m out 1);
        Alcotest.(check int) "b" 20 (Gbuf.get m out 2);
        Alcotest.(check int) "alpha kept" 40 (Gbuf.get m out 3));
    Alcotest.test_case "blur averages horizontal neighbours" `Quick (fun () ->
        let rt =
          Result.get_ok
            (Runtime.boot Runtime.baseline
               ~packages:
                 (Runtime.package "main" ~imports:[ Bild.pkg ]
                    ~functions:[ ("main", 32) ] ()
                 :: Bild.packages ())
               ~entry:"main")
        in
        let m = Runtime.machine rt in
        let src = Runtime.alloc_in rt ~pkg:"main" (4 * 3) in
        (* red channel of 3 pixels: 0, 90, 0 *)
        Gbuf.set m src 4 90;
        let out = Bild.blur rt ~src ~width:3 ~height:1 in
        Alcotest.(check int) "left" 30 (Gbuf.get m out 0);
        Alcotest.(check int) "centre" 30 (Gbuf.get m out 4);
        Alcotest.(check int) "right" 30 (Gbuf.get m out 8));
    Alcotest.test_case "transfers only happen under LitterBox" `Quick (fun () ->
        let base = Scenarios.bild None ~width:64 ~height:64 ~iters:1 () in
        let mpk = Scenarios.bild (Some Lb.Mpk) ~width:64 ~height:64 ~iters:1 () in
        Alcotest.(check int) "baseline none" 0 base.Scenarios.b_transfers;
        Alcotest.(check bool) "mpk many" true (mpk.Scenarios.b_transfers > 0));
  ]

(* ------------------------------------------------------------------ *)
(* HTTP servers *)

let http_tests =
  [
    Alcotest.test_case "http server answers with the page" `Quick (fun () ->
        let r = Scenarios.http None ~requests:16 ~conns:2 () in
        Alcotest.(check int) "served" 16 r.Scenarios.h_requests;
        Alcotest.(check bool) "throughput sane" true (r.Scenarios.h_req_per_sec > 0.0));
    Alcotest.test_case "http under both backends" `Quick (fun () ->
        List.iter
          (fun c -> ignore (Scenarios.http c ~requests:8 ~conns:2 ()))
          [ Some Lb.Mpk; Some Lb.Vtx ]);
    Alcotest.test_case "fasthttp under both backends" `Quick (fun () ->
        List.iter
          (fun c -> ignore (Scenarios.fasthttp c ~requests:8 ~conns:2 ()))
          [ Some Lb.Mpk; Some Lb.Vtx ]);
    Alcotest.test_case "http and fasthttp have similar syscall traces" `Quick
      (fun () ->
        (* Paper §6.2: "FastHTTP and HTTP have a similar system call
           trace". *)
        let a = Scenarios.http None ~requests:64 ~conns:4 () in
        let b = Scenarios.fasthttp None ~requests:64 ~conns:4 () in
        Alcotest.(check bool) "within one syscall" true
          (abs_float (a.Scenarios.h_syscalls_per_req -. b.Scenarios.h_syscalls_per_req)
          < 1.0));
    Alcotest.test_case "response carries the full 13KB page" `Quick (fun () ->
        let main =
          Runtime.package "main" ~imports:[ Httpd.pkg; "assets" ]
            ~functions:[ ("main", 64) ] ()
        in
        let assets =
          Runtime.package "assets"
            ~constants:[ ("index_html", 13 * 1024, Some (Bytes.make (13 * 1024) 'p')) ]
            ()
        in
        let rt =
          Result.get_ok
            (Runtime.boot Runtime.baseline
               ~packages:(main :: assets :: Httpd.packages ())
               ~entry:"main")
        in
        let page = Runtime.global rt ~pkg:"assets" "index_html" in
        Runtime.run_main rt (fun () ->
            Httpd.serve rt ~port:9000 ~handler:(fun ~meth:_ ~path:_ -> page));
        Runtime.kick rt;
        let ep = Httpd.client_connect rt ~port:9000 in
        Runtime.kick rt;
        Httpd.client_get rt ep ~path:"/";
        Runtime.kick rt;
        let resp = Bytes.to_string (Httpd.client_read_response rt ep) in
        Alcotest.(check bool) "status line" true
          (String.length resp > 20 && String.sub resp 0 15 = "HTTP/1.1 200 OK");
        Alcotest.(check bool) "body present" true (String.length resp > 13 * 1024));
    Alcotest.test_case "a response longer than one client recv arrives whole" `Quick
      (fun () ->
        (* Over 64 KiB, so the client drain takes it in two receives and
           joins them. *)
        let len = 100 * 1024 in
        let body = Bytes.init len (fun i -> Char.chr (i mod 251)) in
        let main =
          Runtime.package "main" ~imports:[ Httpd.pkg; "assets" ]
            ~functions:[ ("main", 64) ] ()
        in
        let assets = Runtime.package "assets" ~constants:[ ("big", len, Some body) ] () in
        let rt =
          Result.get_ok
            (Runtime.boot Runtime.baseline
               ~packages:(main :: assets :: Httpd.packages ())
               ~entry:"main")
        in
        let page = Runtime.global rt ~pkg:"assets" "big" in
        Runtime.run_main rt (fun () ->
            Httpd.serve rt ~port:9001 ~handler:(fun ~meth:_ ~path:_ -> page));
        Runtime.kick rt;
        let ep = Httpd.client_connect rt ~port:9001 in
        Runtime.kick rt;
        Httpd.client_get rt ep ~path:"/";
        Runtime.kick rt;
        let want =
          Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n%s"
            len (Bytes.to_string body)
        in
        let resp = Bytes.to_string (Httpd.client_read_response rt ep) in
        Alcotest.(check int) "length" (String.length want) (String.length resp);
        Alcotest.(check bool) "bytes" true (resp = want);
        Alcotest.(check int) "nothing left" 0
          (Bytes.length (Httpd.client_read_response rt ep)));
  ]

(* ------------------------------------------------------------------ *)
(* Wiki *)

let failure_tests =
  [
    Alcotest.test_case "client close ends the connection loop" `Quick (fun () ->
        let main =
          Runtime.package "main" ~imports:[ Httpd.pkg; "assets" ]
            ~functions:[ ("main", 64) ] ()
        in
        let assets =
          Runtime.package "assets"
            ~constants:[ ("index_html", 1024, Some (Bytes.make 1024 'p')) ]
            ()
        in
        let rt =
          Result.get_ok
            (Runtime.boot Runtime.baseline
               ~packages:(main :: assets :: Httpd.packages ())
               ~entry:"main")
        in
        let page = Runtime.global rt ~pkg:"assets" "index_html" in
        Runtime.run_main rt (fun () ->
            Httpd.serve rt ~port:9100 ~handler:(fun ~meth:_ ~path:_ -> page));
        Runtime.kick rt;
        let ep = Httpd.client_connect rt ~port:9100 in
        Runtime.kick rt;
        Httpd.client_get rt ep ~path:"/";
        Runtime.kick rt;
        ignore (Httpd.client_read_response rt ep);
        Encl_kernel.Net.close_ep (Runtime.machine rt).Machine.net ep;
        (* The connection fiber must notice EOF and finish (no deadlock,
           no crash). *)
        Runtime.kick rt;
        Alcotest.(check pass) "survived" () ());
    Alcotest.test_case "double bind on a port fails cleanly" `Quick (fun () ->
        let m = Encl_litterbox.Machine.create () in
        let k = m.Machine.kernel in
        let open Encl_kernel.Kernel in
        let fd1 = Result.get_ok (syscall k Socket) in
        ignore (syscall k (Bind { fd = fd1; port = 7777 }));
        ignore (syscall k (Listen fd1));
        let fd2 = Result.get_ok (syscall k Socket) in
        ignore (syscall k (Bind { fd = fd2; port = 7777 }));
        Alcotest.(check bool) "second listen fails" true
          (Result.is_error (syscall k (Listen fd2))));
    Alcotest.test_case "pq surfaces database errors" `Quick (fun () ->
        let rt =
          Result.get_ok
            (Runtime.boot Runtime.baseline
               ~packages:
                 (Runtime.package "main" ~imports:[ Encl_apps.Pq.pkg ]
                    ~functions:[ ("main", 32) ] ()
                 :: Encl_apps.Pq.packages ())
               ~entry:"main")
        in
        let db = Encl_apps.Minidb.create () in
        ignore
          (Encl_kernel.Net.register_remote (Runtime.machine rt).Machine.net
             ~ip:(Encl_kernel.Net.addr_of_string "10.0.0.9")
             ~port:5432
             ~respond:(Encl_apps.Minidb.wire_server db)
             "pg");
        Runtime.run_main rt (fun () ->
            let conn =
              Encl_apps.Pq.connect rt ~ip:(Encl_kernel.Net.addr_of_string "10.0.0.9")
                ~port:5432
            in
            Alcotest.(check bool) "error surfaced" true
              (Result.is_error (Encl_apps.Pq.query rt conn "NOT EVEN SQL"));
            ignore
              (Result.get_ok
                 (Encl_apps.Pq.query rt conn "CREATE TABLE kv (k, v)"));
            Alcotest.(check bool) "then works" true
              (Result.is_ok
                 (Encl_apps.Pq.query rt conn "INSERT INTO kv VALUES ('a', 'b')"))));
    Alcotest.test_case "minidb handles several statements in one chunk" `Quick
      (fun () ->
        let db = Encl_apps.Minidb.create () in
        let chunk =
          Bytes.concat Bytes.empty
            [
              Encl_apps.Minidb.encode_request "CREATE TABLE t (a)";
              Encl_apps.Minidb.encode_request "INSERT INTO t VALUES ('x')";
              Encl_apps.Minidb.encode_request "SELECT * FROM t";
            ]
        in
        let replies = Encl_apps.Minidb.wire_server db chunk in
        Alcotest.(check int) "three replies" 3 (List.length replies);
        Alcotest.(check (list (list string))) "last is the row"
          [ [ "x" ] ]
          (Result.get_ok (Encl_apps.Minidb.decode_response (List.nth replies 2))));
    Alcotest.test_case "fasthttp under LB_LWC serves" `Quick (fun () ->
        let r = Scenarios.fasthttp (Some Lb.Lwc) ~requests:8 ~conns:2 () in
        Alcotest.(check int) "served" 8 r.Scenarios.h_requests);
    Alcotest.test_case "wiki under LB_LWC roundtrips" `Quick (fun () ->
        Alcotest.(check bool) "ok" true
          (Result.is_ok (Scenarios.wiki_check (Some Lb.Lwc))));
  ]

let wiki_tests =
  [
    Alcotest.test_case "roundtrip works in baseline" `Quick (fun () ->
        match Scenarios.wiki_check None with
        | Ok body ->
            Alcotest.(check string) "body"
              "<html><body>Enclosures in OCaml</body></html>" body
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "roundtrip works under MPK" `Quick (fun () ->
        Alcotest.(check bool) "ok" true (Result.is_ok (Scenarios.wiki_check (Some Lb.Mpk))));
    Alcotest.test_case "roundtrip works under VTX" `Quick (fun () ->
        Alcotest.(check bool) "ok" true (Result.is_ok (Scenarios.wiki_check (Some Lb.Vtx))));
    Alcotest.test_case "wiki serves sustained load enclosed" `Quick (fun () ->
        let r = Scenarios.wiki (Some Lb.Mpk) ~requests:40 ~conns:4 () in
        Alcotest.(check int) "served" 40 r.Scenarios.h_requests);
  ]

(* ------------------------------------------------------------------ *)
(* Attacks (§6.5) *)

let attack_tests =
  let run ?(backend = Some Lb.Mpk) attack mitigation =
    Legacy.run ~backend attack mitigation
  in
  [
    Alcotest.test_case "unprotected ssh-decorator exfiltrates" `Quick (fun () ->
        let o = run ~backend:None Legacy.Ssh_decorator Legacy.Unprotected in
        Alcotest.(check bool) "legit" true o.Legacy.legit_ok;
        Alcotest.(check bool) "stolen" true (o.Legacy.exfiltrated > 0));
    Alcotest.test_case "default policy contains every attack" `Quick (fun () ->
        List.iter
          (fun attack ->
            let o = run attack Legacy.Default_policy in
            Alcotest.(check bool)
              (Legacy.attack_name attack ^ " blocked")
              true o.Legacy.attack_blocked;
            Alcotest.(check int)
              (Legacy.attack_name attack ^ " exfil")
              0 o.Legacy.exfiltrated)
          Legacy.all_attacks);
    Alcotest.test_case "default policy breaks legitimate ssh use" `Quick (fun () ->
        let o = run Legacy.Ssh_decorator Legacy.Default_policy in
        Alcotest.(check bool) "legit broken" false o.Legacy.legit_ok);
    Alcotest.test_case "preallocated socket keeps ssh working, contained" `Quick
      (fun () ->
        let o = run Legacy.Ssh_decorator Legacy.Preallocated_socket in
        Alcotest.(check bool) "legit" true o.Legacy.legit_ok;
        Alcotest.(check bool) "blocked" true o.Legacy.attack_blocked);
    Alcotest.test_case "connect list keeps ssh working, contained" `Quick (fun () ->
        let o = run Legacy.Ssh_decorator Legacy.Connect_list in
        Alcotest.(check bool) "legit" true o.Legacy.legit_ok;
        Alcotest.(check bool) "blocked" true o.Legacy.attack_blocked);
    Alcotest.test_case "connect list cannot stop a backdoor listener" `Quick
      (fun () ->
        (* An honest limitation: granting the net category for the
           legitimate connection also allows bind/listen. *)
        let o = run Legacy.Backdoor Legacy.Connect_list in
        Alcotest.(check bool) "not blocked" false o.Legacy.attack_blocked);
    Alcotest.test_case "memory snoop faults under both backends" `Quick (fun () ->
        List.iter
          (fun backend ->
            let o =
              run ~backend:(Some backend) Legacy.Memory_snoop Legacy.Default_policy
            in
            Alcotest.(check bool) "blocked" true o.Legacy.attack_blocked)
          Fixtures.all_backends);
  ]

(* ------------------------------------------------------------------ *)
(* Scenario registry and the shared command-line converters *)

(* What each registry entry must report at [n] requests: the request
   rate of the typed scenario function called directly. bild and pq
   measure per-operation time and report none. *)
let typed_req_per_sec =
  [
    ("bild", fun _ _ -> None);
    ("http", fun c n -> Some (Scenarios.http c ~requests:n ()).h_req_per_sec);
    ( "fasthttp",
      fun c n -> Some (Scenarios.fasthttp c ~requests:n ()).h_req_per_sec );
    ("wiki", fun c n -> Some (Scenarios.wiki c ~requests:n ()).h_req_per_sec);
    ("pq", fun _ _ -> None);
    ( "smp_http",
      fun c n -> Some (Scenarios.smp_http c ~requests:n ()).s_req_per_sec );
    ( "zerocopy_http",
      fun c n ->
        Some (Scenarios.zerocopy_http c ~requests:n ()).z_req_per_sec );
  ]

let registry_names =
  List.map (fun (e : Scenarios.entry) -> e.name) Scenarios.registry

(* Every counter accessor, read after a scenario run. *)
let accessor_values (o : Scenarios.outcome) =
  let k = (Runtime.machine o.rt).Machine.kernel in
  let lb f = match Runtime.lb o.rt with Some lb -> f lb | None -> 0 in
  let granted, consumed, reclaimed = K.rxring_counters k in
  let hits, misses = K.seccomp_cache_stats k in
  let sched = Runtime.sched o.rt in
  [
    lb Lb.switch_count; lb Lb.switch_elided_count; lb Lb.transfer_count;
    lb Lb.transfer_coalesced_count; lb Lb.fault_count;
    lb Lb.guest_denied_count; lb Lb.gate_violation_count;
    lb Lb.sfi_masked_access_count; lb Lb.tainted_verified_count;
    lb Lb.tainted_rejected_count; K.ring_submitted_count k;
    K.ring_drained_count k; K.ring_batches_count k; K.ring_ipi_count k;
    granted; consumed; reclaimed; K.bytes_copied_count k; hits; misses;
    K.origin_kill_count k; Sched.steal_count sched;
    Sched.affinity_hit_count sched; Sched.kill_count sched;
  ]

let parse conv s = Cmdliner.Arg.conv_parser conv s
let print conv v = Format.asprintf "%a" (Cmdliner.Arg.conv_printer conv) v

let registry_tests =
  [
    Alcotest.test_case "names are unique" `Quick (fun () ->
        Alcotest.(check int) "no duplicates"
          (List.length registry_names)
          (List.length (List.sort_uniq compare registry_names)));
    Alcotest.test_case "an unknown name lists every scenario" `Quick
      (fun () ->
        match Scenarios.find "nosuch" with
        | Ok _ -> Alcotest.fail "found a scenario named nosuch"
        | Error e ->
            Alcotest.(check string) "message"
              ("unknown scenario nosuch (choose from: "
              ^ String.concat ", " registry_names
              ^ ")")
              e);
    Alcotest.test_case "entries match the typed functions on every config"
      `Slow (fun () ->
        Alcotest.(check (list string)) "every entry covered"
          (List.map fst typed_req_per_sec) registry_names;
        let requests = 64 in
        List.iter
          (fun (e : Scenarios.entry) ->
            let typed = List.assoc e.name typed_req_per_sec in
            List.iter
              (fun config ->
                Alcotest.(check (option (float 0.)))
                  (Printf.sprintf "%s under %s" e.name
                     (Scenarios.config_name config))
                  (typed config requests)
                  (e.run config ~requests ()).req_per_sec)
              (None :: List.map Option.some Backend.all))
          Scenarios.registry);
    Alcotest.test_case "counters read the same with tracing on and off"
      `Slow (fun () ->
        let requests = 32 in
        List.iter
          (fun (e : Scenarios.entry) ->
            List.iter
              (fun config ->
                let run ~obs =
                  Cli.with_tracing ~obs ~witness:obs (fun () ->
                      accessor_values (e.run config ~requests ()))
                in
                Alcotest.(check (list int))
                  (Printf.sprintf "%s under %s" e.name
                     (Scenarios.config_name config))
                  (run ~obs:false) (run ~obs:true))
              (None :: List.map Option.some Backend.all))
          Scenarios.registry);
    Alcotest.test_case "--backend round-trips every backend" `Quick (fun () ->
        List.iter
          (fun b ->
            let name = Backend.arg_name b in
            Alcotest.(check bool) (name ^ " parses") true
              (parse Cli.config_conv name = Ok (Some b));
            Alcotest.(check string) (name ^ " prints") name
              (print Cli.config_conv (Some b)))
          Backend.all;
        Alcotest.(check bool) "baseline parses" true
          (parse Cli.config_conv "baseline" = Ok None);
        Alcotest.(check bool) "unknown rejected" true
          (Result.is_error (parse Cli.config_conv "bogus")));
    Alcotest.test_case "backend lists take commas or all" `Quick (fun () ->
        Alcotest.(check bool) "all" true
          (parse Cli.backends_conv "all" = Ok Backend.all);
        Alcotest.(check bool) "round-trip" true
          (parse Cli.backends_conv (print Cli.backends_conv Backend.all)
          = Ok Backend.all);
        Alcotest.(check bool) "subset" true
          (parse Cli.backends_conv "sfi,mpk" = Ok [ Backend.Sfi; Backend.Mpk ]);
        Alcotest.(check bool) "unknown rejected" true
          (Result.is_error (parse Cli.backends_conv "mpk,bogus")));
    Alcotest.test_case "--requests must be at least 1" `Quick (fun () ->
        Alcotest.(check bool) "64 parses" true (parse Cli.requests_conv "64" = Ok 64);
        Alcotest.(check string) "prints" "1" (print Cli.requests_conv 1);
        List.iter
          (fun s ->
            Alcotest.(check bool) (s ^ " rejected") true
              (Result.is_error (parse Cli.requests_conv s)))
          [ "0"; "-5"; "many" ]);
  ]

let () =
  Alcotest.run "apps"
    [
      ("minidb", minidb_tests @ minidb_props);
      ("deps", deps_tests);
      ("mux", mux_tests);
      ("bild", bild_tests);
      ("http", http_tests);
      ("wiki", wiki_tests);
      ("failures", failure_tests);
      ("attacks", attack_tests);
      ("registry", registry_tests);
    ]
