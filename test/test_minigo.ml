(* Tests for the mini-Go language frontend: lexer, parser, compiler
   (dependency inference, compile-time policy validation), and
   end-to-end enforcement of `with`-declared enclosures. *)

module Minigo = Encl_minigo.Minigo
module Lexer = Encl_minigo.Lexer
module Parser = Encl_minigo.Parser
module Compile = Encl_minigo.Compile
module Ast = Encl_minigo.Ast
module Interp = Encl_minigo.Interp
module Runtime = Encl_golike.Runtime
module Lb = Encl_litterbox.Litterbox

(* The paper's Figure 1, in surface syntax. *)
let fig1_sources =
  [
    {|
package main
import libFx
import secrets
import os

func main() {
  img := secrets.load()
  rcl := with "secrets:R; sys=none" func() {
    return libFx.invert(img)
  }
  out := rcl()
  print(get(out, 0))
}

// A handler that tries to steal: reads secrets' buffer and writes it.
func evil() {
  img := secrets.load()
  thief := with "secrets:R; sys=none" func() {
    set(img, 0, 0)
  }
  thief()
}
|};
    {|
package libFx
import img

func invert(buf) {
  out := alloc(len(buf))
  i := 0
  for i < len(buf) {
    set(out, i, 255 - get(buf, i))
    i = i + 1
  }
  return out
}
|};
    {| package img
       func decode(buf) { return buf } |};
    {|
package secrets
var loaded = 0

func load() {
  loaded = 1
  data := alloc(64)
  fill(data, 16)
  return data
}
|};
    {| package os
       func getenv(name) { return "value" } |};
  ]

let build ?config sources =
  match Minigo.build ?config ~sources () with
  | Ok t -> t
  | Error e -> Alcotest.failf "build failed: %s" e

let lexer_tests =
  [
    Alcotest.test_case "tokens and keywords" `Quick (fun () ->
        let toks = Lexer.tokenize "with \"p\" func() { x := 1 // c\n }" in
        let kinds = List.map (fun t -> t.Lexer.tok) toks in
        Alcotest.(check bool) "shape" true
          (kinds
          = [
              Lexer.KW_WITH; Lexer.STRING "p"; Lexer.KW_FUNC; Lexer.LPAREN;
              Lexer.RPAREN; Lexer.LBRACE; Lexer.IDENT "x"; Lexer.DEFINE;
              Lexer.INT 1; Lexer.RBRACE; Lexer.EOF;
            ]));
    Alcotest.test_case "string escapes" `Quick (fun () ->
        match Lexer.tokenize {|"a\n\"b\""|} with
        | [ { tok = Lexer.STRING s; _ }; _ ] ->
            Alcotest.(check string) "decoded" "a\n\"b\"" s
        | _ -> Alcotest.fail "bad token stream");
    Alcotest.test_case "line numbers in errors" `Quick (fun () ->
        match Lexer.tokenize "x\ny\n@" with
        | exception Lexer.Lex_error { line; _ } -> Alcotest.(check int) "line" 3 line
        | _ -> Alcotest.fail "expected lex error");
  ]

let parser_tests =
  [
    Alcotest.test_case "figure-1 parses" `Quick (fun () ->
        match Parser.parse_program fig1_sources with
        | Ok prog -> Alcotest.(check int) "5 packages" 5 (List.length prog)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "precedence" `Quick (fun () ->
        let p = Parser.parse_file "package t\nfunc f() { return 1 + 2 * 3 }" in
        match (List.hd p.Ast.p_funcs).Ast.fn_body with
        | [ Ast.Return (Some (Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, _, _)))) ] -> ()
        | _ -> Alcotest.fail "wrong precedence");
    Alcotest.test_case "syntax errors carry a line" `Quick (fun () ->
        match Parser.parse_program [ "package t\nfunc f( {" ] with
        | Error e -> Alcotest.(check bool) "mentions line" true (String.length e > 0)
        | Ok _ -> Alcotest.fail "expected syntax error");
    Alcotest.test_case "duplicate packages rejected" `Quick (fun () ->
        match Parser.parse_program [ "package a"; "package a" ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "duplicate accepted");
  ]

let compile_tests =
  [
    Alcotest.test_case "enclosure deps inferred from the body" `Quick (fun () ->
        let prog = Result.get_ok (Parser.parse_program fig1_sources) in
        let main = List.find (fun p -> p.Ast.p_name = "main") prog in
        let fn = List.find (fun f -> f.Ast.fn_name = "main") main.Ast.p_funcs in
        (* Find the enclosure body inside main(). *)
        let enc =
          List.find_map
            (function
              | Ast.Define (_, Ast.Enclosure e) -> Some e
              | _ -> None)
            fn.Ast.fn_body
          |> Option.get
        in
        Alcotest.(check (list string)) "deps" [ "libFx" ]
          (Compile.enclosure_deps ~own:"main" enc.Ast.body));
    Alcotest.test_case "local helper calls pull in the owner package" `Quick
      (fun () ->
        let body = [ Ast.Expr (Ast.Call ("helper", [])) ] in
        Alcotest.(check (list string)) "own pkg" [ "me" ]
          (Compile.enclosure_deps ~own:"me" body));
    Alcotest.test_case "builtins do not create dependencies" `Quick (fun () ->
        let body = [ Ast.Expr (Ast.Call ("print", [ Ast.Int 1 ])) ] in
        Alcotest.(check (list string)) "none" [] (Compile.enclosure_deps ~own:"me" body));
    Alcotest.test_case "bad policy rejected at compile time" `Quick (fun () ->
        let src =
          "package main\nfunc main() { e := with \"sys=warp\" func() { return 0 } e() }"
        in
        match Minigo.build ~sources:[ src ] () with
        | Error e ->
            Alcotest.(check bool) "mentions policy" true
              (String.length e > 0)
        | Ok _ -> Alcotest.fail "bad policy accepted");
    Alcotest.test_case "calling an unimported package rejected" `Quick (fun () ->
        let src = "package main\nfunc main() { ghost.run() }" in
        match Minigo.build ~sources:[ src ] () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unimported call accepted");
    Alcotest.test_case "missing main rejected" `Quick (fun () ->
        match Minigo.build ~sources:[ "package main" ] () with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "missing main accepted");
  ]

let run_tests =
  [
    Alcotest.test_case "alloc(0) is a runtime error" `Quick (fun () ->
        let t = build [ "package main\nfunc main() { s := alloc(0) }" ] in
        match Minigo.run_main t with
        | Error e ->
            Alcotest.(check string) "message"
              "runtime error: alloc: size must be positive, got 0" e
        | Ok () -> Alcotest.fail "alloc(0) succeeded");
    Alcotest.test_case "unbounded recursion is a runtime error" `Quick (fun () ->
        let t =
          build
            [
              "package main\nfunc f(x) { return f(x + 1) }\nfunc main() { f(0) }";
            ]
        in
        match Minigo.run_main t with
        | Error e ->
            Alcotest.(check string) "message"
              "runtime error: call depth exceeds 10000 (unbounded recursion?)" e
        | Ok () -> Alcotest.fail "unbounded recursion returned");
    Alcotest.test_case "figure-1 program runs and inverts" `Quick (fun () ->
        let t = build fig1_sources in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        (* The secret image is 0x10-filled; inverted first byte = 239. *)
        Alcotest.(check string) "output" "239\n" (Minigo.output t));
    Alcotest.test_case "figure-1 runs under VTX too" `Quick (fun () ->
        let t = build ~config:(Runtime.with_backend Lb.Vtx) fig1_sources in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "output" "239\n" (Minigo.output t));
    Alcotest.test_case "the thief enclosure faults on write" `Quick (fun () ->
        let t = build fig1_sources in
        match Minigo.call t ~pkg:"main" ~fn:"evil" [] with
        | Error e ->
            Alcotest.(check bool) "fault reported" true (String.length e > 0)
        | Ok _ -> Alcotest.fail "write to read-only secret succeeded");
    Alcotest.test_case "enclosed code cannot make system calls" `Quick (fun () ->
        let src =
          {|
package main
func main() {
  e := with "; sys=none" func() {
    return getuid()
  }
  e()
}
|}
        in
        let t = build [ src ] in
        match Minigo.run_main t with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "getuid permitted");
    Alcotest.test_case "allowed system calls go through" `Quick (fun () ->
        let src =
          {|
package main
func main() {
  e := with "; sys=proc" func() {
    return getuid()
  }
  print(e())
}
|}
        in
        let t = build [ src ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "uid" "1000\n" (Minigo.output t));
    Alcotest.test_case "package vars live in guest memory and are protected"
      `Quick (fun () ->
        let src =
          {|
package main
import counterlib

func main() {
  spy := with "" func() {
    return counterlib.bump()
  }
  print(spy())
}
|}
        in
        let lib =
          {|
package counterlib
var count = 41

func bump() {
  count = count + 1
  return count
}
|}
        in
        let t = build [ src; lib ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "incremented in guest memory" "42\n" (Minigo.output t));
    Alcotest.test_case "reading a foreign package's var faults" `Quick (fun () ->
        let liba = "package libA\nfunc noop() { return 0 }" in
        let secretlib =
          "package secretlib\nvar token = 7777\nfunc peek() { return token }"
        in
        (* An enclosure whose view includes secretlib reads it fine... *)
        let ok_src =
          {|
package main
import secretlib

func main() {
  e := with "" func() {
    return secretlib.peek()
  }
  print(e())
}
|}
        in
        let t = build [ ok_src; secretlib ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "own deps fine" "7777\n" (Minigo.output t);
        (* ...but a U modifier unmaps it even though the body calls it. *)
        let evil_src =
          {|
package main
import libA
import secretlib

func main() {
  e := with "secretlib:U" func() {
    libA.noop()
    return secretlib.peek()
  }
  e()
}
|}
        in
        let t2 = build [ evil_src; liba; secretlib ] in
        match Minigo.run_main t2 with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "unmapped package was callable");
    Alcotest.test_case "for/if control flow" `Quick (fun () ->
        let src =
          {|
package main
func main() {
  sum := 0
  i := 0
  for i < 10 {
    if i % 2 == 0 {
      sum = sum + i
    }
    i = i + 1
  }
  print(sum)
}
|}
        in
        let t = build [ src ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "sum of evens" "20\n" (Minigo.output t));
    Alcotest.test_case "string consts live in rodata" `Quick (fun () ->
        let src =
          {|
package main
const banner = "enclosures!"
func main() { print(banner) }
|}
        in
        let t = build [ src ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "banner" "enclosures!\n" (Minigo.output t));
    Alcotest.test_case "write_file under a file-permitting enclosure" `Quick
      (fun () ->
        let src =
          {|
package main
func main() {
  // The staging buffer for write_file lives in main's arena, so the
  // view must include main read-write.
  e := with "main:RW; sys=file,io" func() {
    write_file("/note.txt", "hello disk")
    return 0
  }
  e()
  print(read_file("/note.txt"))
}
|}
        in
        let t = build [ src ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "roundtrip" "hello disk\n" (Minigo.output t));
    Alcotest.test_case "enclosure names are registered with LitterBox" `Quick
      (fun () ->
        let t = build fig1_sources in
        Alcotest.(check bool) "main_enc0 exists" true
          (List.mem "main_enc0" (Minigo.enclosure_names t)));
    Alcotest.test_case "nested enclosures obey the restriction rule" `Quick
      (fun () ->
        let src =
          {|
package main
import libA

func main() {
  outer := with "; sys=proc" func() {
    inner := with "; sys=none" func() {
      return libA.noop()
    }
    return inner()
  }
  print(outer())
}
|}
        in
        let liba = "package libA\nfunc noop() { return 5 }" in
        let t = build [ src; liba ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "nested ok" "5\n" (Minigo.output t));
  ]

let init_tests =
  [
    Alcotest.test_case "untagged init runs at boot, deps first" `Quick (fun () ->
        let main =
          {|
package main
import liba
func main() { print(liba.probe()) }
|}
        in
        let liba =
          {|
package liba
var ran = 0
func init() { ran = 1 }
func probe() { return ran }
|}
        in
        let t = build [ main; liba ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "liba.init ran" "1\n" (Minigo.output t));
    Alcotest.test_case "tagged import encloses the init function" `Quick (fun () ->
        (* evilpkg's init tries to phone home; the tag contains it. *)
        let main =
          {|
package main
import evilpkg with "; sys=none"
func main() { print(evilpkg.value()) }
|}
        in
        let evil =
          {|
package evilpkg
func init() { getuid() }
func value() { return 3 }
|}
        in
        match Minigo.build ~sources:[ main; evil ] () with
        | Ok _ -> Alcotest.fail "malicious init ran unchecked"
        | Error e ->
            Alcotest.(check bool) "init faulted" true (String.length e > 0));
    Alcotest.test_case "tagged import with a permissive policy works" `Quick
      (fun () ->
        let main =
          {|
package main
import clock with "; sys=proc"
func main() { print(clock.cached()) }
|}
        in
        let clock =
          {|
package clock
var uid = 0
func init() { uid = getuid() }
func cached() { return uid }
|}
        in
        let t = build [ main; clock ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "init's syscall allowed" "1000\n" (Minigo.output t));
  ]


let program_wide_tests =
  [
    Alcotest.test_case "tagged imports wrap every call (paper 3.2)" `Quick
      (fun () ->
        (* No explicit `with` at the call sites: the import tag is the
           program-wide policy. *)
        let main =
          {|
package main
import leaky with "; sys=none"

func main() {
  print(leaky.compute(20))
  print(leaky.compute(1))
}
|}
        in
        let leaky =
          {|
package leaky
func compute(n) {
  if n > 10 {
    return n * 2
  }
  // the sneaky branch tries a system call
  getuid()
  return 0
}
|}
        in
        let t = build [ main; leaky ] in
        match Minigo.run_main t with
        | Error e ->
            (* First call succeeded, second faulted on the syscall. *)
            Alcotest.(check string) "first call output" "40\n" (Minigo.output t);
            Alcotest.(check bool) "fault" true (String.length e > 0)
        | Ok () -> Alcotest.fail "syscall escaped the program-wide policy");
    Alcotest.test_case "tagged package cannot read the app's memory" `Quick
      (fun () ->
        let main =
          {|
package main
import nosy with ""

var secret_level = 9000

func main() {
  print(nosy.innocent())
  probe_secret()
}

func probe_secret() {
  print(nosy.innocent() + secret_level)
}
|}
        in
        let nosy = "package nosy\nfunc innocent() { return 1 }" in
        let t = build [ main; nosy ] in
        (* nosy itself never touches main's memory: everything passes, and
           main reads its own var outside the enclosure. *)
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "outputs" "1\n9001\n" (Minigo.output t));
    Alcotest.test_case "untagged imports stay unwrapped" `Quick (fun () ->
        let main =
          {|
package main
import free

func main() { print(free.uid()) }
|}
        in
        let free = "package free\nfunc uid() { return getuid() }" in
        let t = build [ main; free ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "unrestricted" "1000\n" (Minigo.output t));
  ]


let goroutine_tests =
  [
    Alcotest.test_case "go spawns and main drains goroutines" `Quick (fun () ->
        let src =
          {|
package main
func worker(n) { print(n) }
func main() {
  go worker(1)
  go worker(2)
  print(0)
}
|}
        in
        let t = build [ src ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "main first, then workers" "0\n1\n2\n"
          (Minigo.output t));
    Alcotest.test_case "channels communicate across goroutines" `Quick (fun () ->
        let src =
          {|
package main
func main() {
  c := make_chan(4)
  go produce(c)
  total := 0
  n := 0
  for n < 3 {
    total = total + chan_recv(c)
    n = n + 1
  }
  print(total)
}

func produce(c) {
  chan_send(c, 10)
  chan_send(c, 20)
  chan_send(c, 30)
}
|}
        in
        let t = build [ src ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "sum" "60\n" (Minigo.output t));
    Alcotest.test_case "secured callback: enclosed producer, trusted consumer"
      `Quick (fun () ->
        (* The FastHTTP pattern (paper 6.2) in surface syntax: an enclosed
           goroutine parses "requests" and forwards them over a channel to
           trusted code; the enclosure itself can make no system calls. *)
        let src =
          {|
package main
import parser

func main() {
  c := make_chan(4)
  server := with "; sys=none" func() {
    chan_send(c, parser.parse(41))
  }
  go run_server(server)
  v := chan_recv(c)
  // trusted side may use syscalls freely
  print(v + getuid())
}

func run_server(s) {
  s()
}
|}
        in
        let parser_src = "package parser\nfunc parse(n) { return n + 1 }" in
        let t = build [ src; parser_src ] in
        (match Minigo.run_main t with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check string) "42 + uid" "1042\n" (Minigo.output t));
    Alcotest.test_case "goroutines inherit the enclosure environment" `Quick
      (fun () ->
        (* A goroutine spawned inside an enclosure stays restricted. *)
        let src =
          {|
package main
import libA

func main() {
  e := with "; sys=none" func() {
    go sneak()
    return libA.noop()
  }
  e()
}

func sneak() { getuid() }
|}
        in
        let liba = "package libA\nfunc noop() { return 0 }" in
        let t = build [ src; liba ] in
        (match Minigo.run_main t with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("main should survive the killed goroutine: " ^ e));
        (* The spawned goroutine inherited the enclosure environment, so
           its getuid() was filtered: the fault is recorded and the
           fiber reaped — without taking the program down. *)
        let rt = Minigo.runtime t in
        let lb = Option.get (Encl_golike.Runtime.lb rt) in
        Alcotest.(check bool)
          "syscall was filtered (fault recorded)" true
          (Encl_litterbox.Litterbox.fault_count lb > 0);
        Alcotest.(check int) "sneak fiber reaped" 1
          (Encl_golike.Sched.kill_count (Encl_golike.Runtime.sched rt)));
  ]


let () =
  Alcotest.run "minigo"
    [
      ("lexer", lexer_tests);
      ("parser", parser_tests);
      ("compile", compile_tests);
      ("run", run_tests);
      ("init", init_tests);
      ("program-wide", program_wide_tests);
      ("goroutines", goroutine_tests);
    ]
