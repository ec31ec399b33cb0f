(* FIFO byte queue with chunked storage. [push] adopts the buffer it is
   given — the queue owns it from then on and never writes to it — so a
   payload is copied once on its way in (by whoever made the buffer) and
   once on its way out ([pop]). *)
module Bytebuf = struct
  type t = { chunks : Bytes.t Queue.t; mutable offset : int; mutable size : int }

  let create () = { chunks = Queue.create (); offset = 0; size = 0 }

  let push t data =
    if Bytes.length data > 0 then begin
      Queue.push data t.chunks;
      t.size <- t.size + Bytes.length data
    end

  let size t = t.size

  (* Up to [n] bytes, clamped to [0, size], in one fresh buffer filled
     with one blit per chunk it spans. *)
  let pop t n =
    let n = max 0 (min n t.size) in
    let out = Bytes.create n in
    let filled = ref 0 in
    while !filled < n do
      let chunk = Queue.peek t.chunks in
      let avail = Bytes.length chunk - t.offset in
      let take = min avail (n - !filled) in
      Bytes.blit chunk t.offset out !filled take;
      filled := !filled + take;
      if take = avail then begin
        ignore (Queue.pop t.chunks);
        t.offset <- 0
      end
      else t.offset <- t.offset + take
    done;
    t.size <- t.size - n;
    out
end

type remote = {
  r_name : string;
  r_received : Buffer.t;
  r_respond : Bytes.t -> Bytes.t list;
  mutable r_conns : int;
}

type ep = { inbox : Bytebuf.t; mutable peer : peer; mutable closed : bool }
and peer = Peer_ep of ep | Peer_remote of remote | Peer_none

type listener = { port : int; backlog : ep Queue.t }

type t = {
  listeners : (int, listener) Hashtbl.t;
  remotes : (int * int, remote) Hashtbl.t;
  mutable inject : Encl_fault.Fault.t option;
}

let create () =
  { listeners = Hashtbl.create 8; remotes = Hashtbl.create 8; inject = None }

let set_injector t inj =
  Encl_fault.Fault.register inj ~point:"net.conn_drop"
    ~doc:"connection torn down mid-operation (both endpoints closed)";
  Encl_fault.Fault.register inj ~point:"net.partial_read"
    ~doc:"recv returns only half of what it could, never more than asked";
  Encl_fault.Fault.register inj ~point:"net.partial_write"
    ~doc:"send delivers only a prefix of the payload";
  t.inject <- Some inj

let injected t point =
  match t.inject with
  | None -> false
  | Some inj ->
      Encl_fault.Fault.active inj && Encl_fault.Fault.fires inj ~env:"net" point

let loopback = 0x7f000001

let addr_of_string s =
  match String.split_on_char '.' s |> List.map int_of_string with
  | [ a; b; c; d ]
    when List.for_all (fun v -> v >= 0 && v <= 255) [ a; b; c; d ] ->
      (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
  | _ | (exception Failure _) -> invalid_arg ("Net.addr_of_string: " ^ s)

let string_of_addr ip =
  Printf.sprintf "%d.%d.%d.%d" ((ip lsr 24) land 0xff) ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff) (ip land 0xff)

type recv_result = Data of Bytes.t | Would_block | Eof

let fresh_ep () = { inbox = Bytebuf.create (); peer = Peer_none; closed = false }

let pair () =
  let a = fresh_ep () and b = fresh_ep () in
  a.peer <- Peer_ep b;
  b.peer <- Peer_ep a;
  (a, b)

let drop_conn ep =
  (match ep.peer with Peer_ep other -> other.closed <- true | _ -> ());
  ep.closed <- true

let send t ep data =
  if ep.closed then Error "send on closed socket"
  else if injected t "net.conn_drop" then begin
    drop_conn ep;
    Error "connection dropped"
  end
  else
    match ep.peer with
    | Peer_none -> Error "socket not connected"
    | Peer_ep other ->
        if other.closed then Error "peer closed (EPIPE)"
        else if
          injected t "net.partial_write" && Bytes.length data > 1
        then begin
          (* Deliver a prefix; the caller sees a short count and must
             resend the rest, as with a full socket buffer. *)
          let n = Bytes.length data / 2 in
          Bytebuf.push other.inbox (Bytes.sub data 0 n);
          Ok n
        end
        else begin
          Bytebuf.push other.inbox data;
          Ok (Bytes.length data)
        end
    | Peer_remote r ->
        Buffer.add_bytes r.r_received data;
        List.iter (fun reply -> Bytebuf.push ep.inbox reply) (r.r_respond data);
        Ok (Bytes.length data)

let pipe_pair _t = pair ()

let readable _t ep =
  Bytebuf.size ep.inbox > 0
  || ep.closed
  || (match ep.peer with
     | Peer_ep other -> other.closed
     | Peer_none -> true
     | Peer_remote _ -> false)

let recv t ep n =
  if Bytebuf.size ep.inbox > 0 then begin
    let n =
      if injected t "net.partial_read" then
        min n (max 1 (min n (Bytebuf.size ep.inbox) / 2))
      else n
    in
    Data (Bytebuf.pop ep.inbox n)
  end
  else if ep.closed then Eof
  else
    match ep.peer with
    | Peer_ep other when other.closed -> Eof
    | Peer_none -> Eof
    | Peer_ep _ | Peer_remote _ -> Would_block

let close_ep _t ep =
  ep.closed <- true;
  match ep.peer with
  | Peer_remote r -> r.r_conns <- r.r_conns - 1
  | Peer_ep _ | Peer_none -> ()

let ep_closed ep = ep.closed

let listen t ~port =
  if Hashtbl.mem t.listeners port then
    Error (Printf.sprintf "port %d already bound" port)
  else begin
    let l = { port; backlog = Queue.create () } in
    Hashtbl.replace t.listeners port l;
    Ok l
  end

let accept _t l = if Queue.is_empty l.backlog then None else Some (Queue.pop l.backlog)
let pending _t l = Queue.length l.backlog

let connect t ~ip ~port =
  match Hashtbl.find_opt t.remotes (ip, port) with
  | Some r ->
      let ep = fresh_ep () in
      ep.peer <- Peer_remote r;
      r.r_conns <- r.r_conns + 1;
      Ok ep
  | None ->
      if ip = loopback then
        match Hashtbl.find_opt t.listeners port with
        | Some l ->
            let guest_end, server_end = pair () in
            Queue.push server_end l.backlog;
            Ok guest_end
        | None -> Error "connection refused"
      else Error (Printf.sprintf "no route to host %s" (string_of_addr ip))

let client_connect t ~port =
  match Hashtbl.find_opt t.listeners port with
  | Some l ->
      let client_end, server_end = pair () in
      Queue.push server_end l.backlog;
      Ok client_end
  | None -> Error "connection refused"

let register_remote t ~ip ~port ?(respond = fun _ -> []) name =
  let r = { r_name = name; r_received = Buffer.create 256; r_respond = respond; r_conns = 0 } in
  Hashtbl.replace t.remotes (ip, port) r;
  r

let remote_received r = Buffer.to_bytes r.r_received
let remote_name r = r.r_name
let remote_conn_count r = r.r_conns
