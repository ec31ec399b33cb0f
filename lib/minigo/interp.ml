module Runtime = Encl_golike.Runtime
module Gbuf = Encl_golike.Gbuf
module Machine = Encl_litterbox.Machine
module K = Encl_kernel.Kernel

type value =
  | VUnit
  | VInt of int
  | VBool of bool
  | VStr of string
  | VBuf of Gbuf.t
  | VClosure of Ast.enclosure * string * scope
  | VChan of value Encl_golike.Channel.t

and scope = (string, value) Hashtbl.t

let value_to_string = function
  | VUnit -> "()"
  | VInt n -> string_of_int n
  | VBool b -> string_of_bool b
  | VStr s -> s
  | VBuf b -> Printf.sprintf "<buf %d bytes @%#x>" b.Gbuf.len b.Gbuf.addr
  | VClosure (enc, _, _) ->
      Printf.sprintf "<enclosure %s>" (Option.value ~default:"?" enc.Ast.e_id)
  | VChan _ -> "<channel>"

type ctx = {
  rt : Runtime.t;
  compiled : Compile.compiled;
  out : Buffer.t;
}

exception Runtime_error of string
exception Return_v of value

let err fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

let create rt compiled = { rt; compiled; out = Buffer.create 256 }
let runtime t = t.rt
let output t = Buffer.contents t.out

let find_pkg ctx name =
  List.find_opt (fun p -> p.Ast.p_name = name) ctx.compiled.Compile.c_prog

let find_fn ctx ~pkg ~fn =
  match find_pkg ctx pkg with
  | None -> None
  | Some p -> List.find_opt (fun f -> f.Ast.fn_name = fn) p.Ast.p_funcs

let machine ctx = Runtime.machine ctx.rt

(* Package-level storage: vars are 8-byte little-endian slots in .data;
   consts live in .rodata with a recorded length. *)
let read_var ctx ~pkg name =
  let g = Runtime.global ctx.rt ~pkg name in
  VInt (Int64.to_int (Gbuf.get64 (machine ctx) g 0))

let write_var ctx ~pkg name v =
  let g = Runtime.global ctx.rt ~pkg name in
  match v with
  | VInt n -> Gbuf.set64 (machine ctx) g 0 (Int64.of_int n)
  | VBool b -> Gbuf.set64 (machine ctx) g 0 (if b then 1L else 0L)
  | _ -> err "package variable %s.%s can only hold integers" pkg name

let read_const ctx ~pkg name info =
  let g = Runtime.global ctx.rt ~pkg name in
  if info.Compile.ci_is_str then
    VStr (Bytes.to_string (Gbuf.read_bytes (machine ctx) (Gbuf.sub g ~pos:0 ~len:info.Compile.ci_len)))
  else VInt (Int64.to_int (Gbuf.get64 (machine ctx) g 0))

let truthy = function
  | VBool b -> b
  | VInt n -> n <> 0
  | v -> err "condition is not a boolean: %s" (value_to_string v)

let as_int what = function
  | VInt n -> n
  | v -> err "%s expects an integer, got %s" what (value_to_string v)

let as_str what = function
  | VStr s -> s
  | v -> err "%s expects a string, got %s" what (value_to_string v)

let as_buf what = function
  | VBuf b -> b
  | v -> err "%s expects a buffer, got %s" what (value_to_string v)

let eval_binop op a b =
  match (op, a, b) with
  | Ast.Add, VInt x, VInt y -> VInt (x + y)
  | Ast.Add, VStr x, VStr y -> VStr (x ^ y)
  | Ast.Sub, VInt x, VInt y -> VInt (x - y)
  | Ast.Mul, VInt x, VInt y -> VInt (x * y)
  | Ast.Div, VInt x, VInt y ->
      if y = 0 then err "division by zero" else VInt (x / y)
  | Ast.Mod, VInt x, VInt y ->
      if y = 0 then err "division by zero" else VInt (x mod y)
  | Ast.Lt, VInt x, VInt y -> VBool (x < y)
  | Ast.Le, VInt x, VInt y -> VBool (x <= y)
  | Ast.Gt, VInt x, VInt y -> VBool (x > y)
  | Ast.Ge, VInt x, VInt y -> VBool (x >= y)
  | Ast.Eq, x, y -> VBool (x = y)
  | Ast.Ne, x, y -> VBool (x <> y)
  | _ ->
      err "type error: %s %s %s" (value_to_string a)
        (match op with
        | Ast.Add -> "+"
        | Ast.Sub -> "-"
        | Ast.Mul -> "*"
        | Ast.Div -> "/"
        | Ast.Mod -> "%"
        | _ -> "?")
        (value_to_string b)

(* Scratch guest buffers for builtins that cross the syscall boundary. *)
let stage_string ctx s =
  let buf = Runtime.alloc ctx.rt (max 8 (String.length s)) in
  Gbuf.write_string (machine ctx) (Gbuf.sub buf ~pos:0 ~len:(String.length s)) s;
  buf

let import_enclosure ctx ~importer ~target =
  match find_pkg ctx importer with
  | None -> None
  | Some p ->
      if List.mem_assoc target p.Ast.p_import_policies then
        Some (Printf.sprintf "%s_init_%s" importer target)
      else None

let rec eval ctx ~pkg env expr =
  match expr with
  | Ast.Int n -> VInt n
  | Ast.Str s -> VStr s
  | Ast.Bool b -> VBool b
  | Ast.Var x -> (
      match Hashtbl.find_opt env x with
      | Some v -> v
      | None -> (
          match Hashtbl.find_opt ctx.compiled.Compile.c_consts (pkg, x) with
          | Some info -> read_const ctx ~pkg x info
          | None -> (
              match find_pkg ctx pkg with
              | Some p when List.exists (fun v -> v.Ast.v_name = x) p.Ast.p_vars ->
                  read_var ctx ~pkg x
              | _ -> err "unbound variable %s" x)))
  | Ast.Binop (op, a, b) -> eval_binop op (eval ctx ~pkg env a) (eval ctx ~pkg env b)
  | Ast.Enclosure enc ->
      (* The closure captures the defining function's environment by
         reference. *)
      VClosure (enc, pkg, env)
  | Ast.Pkg_call (target, fn, args) -> (
      let argv = List.map (eval ctx ~pkg env) args in
      (* Program-wide policies (paper 3.2): when the importing package
         tagged the import with a policy, every call into the target is
         automatically wrapped in the synthesized enclosure. *)
      match import_enclosure ctx ~importer:pkg ~target with
      | Some enc_name ->
          Runtime.with_enclosure ctx.rt enc_name (fun () ->
              call_function ctx ~pkg:target ~fn argv)
      | None -> call_function ctx ~pkg:target ~fn argv)
  | Ast.Call (name, args) -> (
      let argv () = List.map (eval ctx ~pkg env) args in
      match Hashtbl.find_opt env name with
      | Some (VClosure (enc, owner, captured)) ->
          if args <> [] then err "closures take no arguments";
          call_closure ctx enc owner captured
      | Some v -> err "%s is not callable (%s)" name (value_to_string v)
      | None ->
          if find_fn ctx ~pkg ~fn:name <> None then
            call_function ctx ~pkg ~fn:name (argv ())
          else builtin ctx ~pkg env name (argv ()))

and call_closure ctx enc owner captured =
  let id =
    match enc.Ast.e_id with
    | Some id -> id
    | None -> err "enclosure was not registered by the compiler"
  in
  Runtime.with_enclosure ctx.rt id (fun () ->
      match exec_block ctx ~pkg:owner captured enc.Ast.body with
      | () -> VUnit
      | exception Return_v v -> v)

and call_function ctx ~pkg ~fn argv =
  match find_fn ctx ~pkg ~fn with
  | None -> err "unknown function %s.%s" pkg fn
  | Some f ->
      if List.length f.Ast.fn_params <> List.length argv then
        err "%s.%s expects %d arguments, got %d" pkg fn
          (List.length f.Ast.fn_params) (List.length argv);
      Runtime.in_function ctx.rt ~pkg ~fn (fun () ->
          let env = Hashtbl.create 8 in
          List.iter2 (fun p v -> Hashtbl.replace env p v) f.Ast.fn_params argv;
          match exec_block ctx ~pkg env f.Ast.fn_body with
          | () -> VUnit
          | exception Return_v v -> v)

and exec_block ctx ~pkg env b = List.iter (exec_stmt ctx ~pkg env) b

and exec_stmt ctx ~pkg env = function
  | Ast.Define (x, e) -> Hashtbl.replace env x (eval ctx ~pkg env e)
  | Ast.Assign (x, e) ->
      let v = eval ctx ~pkg env e in
      if Hashtbl.mem env x then Hashtbl.replace env x v
      else (
        match find_pkg ctx pkg with
        | Some p when List.exists (fun vd -> vd.Ast.v_name = x) p.Ast.p_vars ->
            write_var ctx ~pkg x v
        | _ -> err "assignment to unbound variable %s" x)
  | Ast.Expr e -> ignore (eval ctx ~pkg env e)
  | Ast.Return None -> raise (Return_v VUnit)
  | Ast.Return (Some e) -> raise (Return_v (eval ctx ~pkg env e))
  | Ast.If (c, t, e) ->
      if truthy (eval ctx ~pkg env c) then exec_block ctx ~pkg env t
      else Option.iter (exec_block ctx ~pkg env) e
  | Ast.For (c, body) ->
      let rec loop () =
        if truthy (eval ctx ~pkg env c) then begin
          exec_block ctx ~pkg env body;
          loop ()
        end
      in
      loop ()
  | Ast.Go e ->
      (* The goroutine inherits the current execution environment
         (paper 5.1); the spawned body re-evaluates the call. *)
      Runtime.go ctx.rt (fun () -> ignore (eval ctx ~pkg env e))

and builtin ctx ~pkg:_ env name argv =
  ignore env;
  let m = machine ctx in
  match (name, argv) with
  | "print", [ v ] ->
      Buffer.add_string ctx.out (value_to_string v);
      Buffer.add_char ctx.out '\n';
      VUnit
  | "alloc", [ VInt n ] ->
      if n < 1 then err "alloc: size must be positive, got %d" n
      else VBuf (Runtime.alloc ctx.rt n)
  | "len", [ VBuf b ] -> VInt b.Gbuf.len
  | "len", [ VStr s ] -> VInt (String.length s)
  | "get", [ b; i ] -> VInt (Gbuf.get m (as_buf "get" b) (as_int "get" i))
  | "set", [ b; i; v ] ->
      Gbuf.set m (as_buf "set" b) (as_int "set" i) (as_int "set" v);
      VUnit
  | "fill", [ b; v ] ->
      Gbuf.fill m (as_buf "fill" b) (as_int "fill" v);
      VUnit
  | "read_str", [ VBuf b ] ->
      let s = Gbuf.read_string m b in
      VStr
        (match String.index_opt s '\000' with
        | Some i -> String.sub s 0 i
        | None -> s)
  | "write_str", [ b; s ] ->
      let b = as_buf "write_str" b and s = as_str "write_str" s in
      if String.length s > b.Gbuf.len then err "write_str: string too large";
      Gbuf.write_string m (Gbuf.sub b ~pos:0 ~len:(String.length s)) s;
      VUnit
  | "make_chan", [ VInt cap ] ->
      VChan (Encl_golike.Channel.create (Runtime.sched ctx.rt) ~cap)
  | "chan_send", [ VChan c; v ] ->
      Encl_golike.Channel.send c v;
      VUnit
  | "chan_recv", [ VChan c ] -> Encl_golike.Channel.recv c
  | "chan_len", [ VChan c ] -> VInt (Encl_golike.Channel.length c)
  | "yield", [] ->
      Runtime.yield ctx.rt;
      VUnit
  | "getuid", [] -> (
      match Runtime.syscall ctx.rt K.Getuid with
      | Ok uid -> VInt uid
      | Error e -> err "getuid failed: %s" (K.errno_name e))
  | "mkdir", [ VStr path ] -> (
      match Runtime.syscall ctx.rt (K.Mkdir path) with
      | Ok _ -> VUnit
      | Error e -> err "mkdir %s failed: %s" path (K.errno_name e))
  | "write_file", [ VStr path; VStr content ] -> (
      let staged = stage_string ctx content in
      match Runtime.syscall ctx.rt (K.Open { path; flags = [ K.O_wronly; K.O_creat ] }) with
      | Error e -> err "open %s failed: %s" path (K.errno_name e)
      | Ok fd ->
          (match
             Runtime.syscall ctx.rt
               (K.Write { fd; buf = staged.Gbuf.addr; len = String.length content })
           with
          | Ok _ -> ()
          | Error e -> err "write %s failed: %s" path (K.errno_name e));
          (match Runtime.syscall ctx.rt (K.Close fd) with
          | Ok _ -> ()
          | Error e -> err "close %s failed: %s" path (K.errno_name e));
          VUnit)
  | "read_file", [ VStr path ] -> (
      let staged = Runtime.alloc ctx.rt 4096 in
      match Runtime.syscall ctx.rt (K.Open { path; flags = [ K.O_rdonly ] }) with
      | Error e -> err "open %s failed: %s" path (K.errno_name e)
      | Ok fd -> (
          match
            Runtime.syscall ctx.rt (K.Read { fd; buf = staged.Gbuf.addr; len = 4096 })
          with
          | Error e -> err "read %s failed: %s" path (K.errno_name e)
          | Ok n ->
              ignore (Runtime.syscall ctx.rt (K.Close fd));
              VStr
                (Bytes.to_string
                   (Gbuf.read_bytes m (Gbuf.sub staged ~pos:0 ~len:n)))))
  | "sleep", [ VInt ns ] ->
      ignore (Runtime.syscall ctx.rt (K.Nanosleep ns));
      VUnit
  | "itoa", [ VInt n ] -> VStr (string_of_int n)
  | "concat", [ VStr a; VStr b ] -> VStr (a ^ b)
  | _, _ ->
      err "unknown function or bad arguments: %s/%d" name (List.length argv)
