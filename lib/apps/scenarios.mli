(** Ready-made macrobenchmark scenarios (paper §6.2–§6.3).

    Each scenario builds a full program (packages + enclosures), boots it
    under the requested configuration ([None] = unmodified-Go baseline),
    drives a workload, and reports simulated-time results. Every result
    record carries the booted runtime ([b_rt], [h_rt], ...), so a caller
    can inspect the machine — observability sink, LitterBox counters —
    after the workload. These are used by the benchmark harness, the
    command-line tools (through {!registry}), the examples, and the
    integration tests. *)

type config = Encl_litterbox.Litterbox.backend option

val config_name : config -> string

val workload_syscalls : Encl_golike.Runtime.t -> int
(** System calls the runtime's kernel executed, outside the
    memory-management family (mmap, pkey_mprotect): allocator growth
    moves with fiber interleaving, and only LB_MPK transfers issue
    pkey_mprotect. The count enforcement comparisons hold equal. *)

val runtime_config :
  ?rcfg:Encl_golike.Runtime.config -> config -> Encl_golike.Runtime.config
(** The runtime configuration a scenario boots: [rcfg] when given, else
    the unmodified-Go baseline ([None]) or the default configuration of
    the backend. *)

(** The [?rcfg] parameter overrides the full runtime configuration
    (custom cost model, clustering ablation); when present it takes
    precedence over the backend [config]. *)

type bild_result = {
  b_ns_per_invert : int;  (** steady-state simulated ns per invert call *)
  b_transfers : int;
  b_checksum : int;  (** output checksum (correctness witness) *)
  b_rt : Encl_golike.Runtime.t;
}

val bild :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?width:int -> ?height:int ->
  ?iters:int -> unit -> bild_result
(** The Table 2 "bild" row: a sensitive image shared read-only with an
    enclosed call to bild's [invert]; all system calls denied. Default
    image 1024x1024 RGBA, 3 measured iterations after one warm-up. *)

type http_result = {
  h_requests : int;
  h_ns : int;
      (** makespan of the measured requests: the slowest core's simulated
          ns, which on one core is the whole machine's *)
  h_req_per_sec : float;
  h_syscalls_per_req : float;
  h_rt : Encl_golike.Runtime.t;
}

val http :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?requests:int -> ?conns:int ->
  unit -> http_result
(** The Table 2 "HTTP" row: net/http server, enclosed request handler
    (no packages, no system calls) returning a 13 KB static page. *)

val fasthttp :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?requests:int -> ?conns:int ->
  unit -> http_result
(** The Table 2 "FastHTTP" row: whole server enclosed with a net-only
    filter, trusted handler goroutine behind channels. *)

val wiki :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?cores:int -> ?requests:int ->
  ?conns:int -> unit -> http_result
(** The Figure 5 wiki application: GET-page workload against the
    mini-Postgres remote, two enclosures (HTTP server, DB proxy).
    [cores], when pinned, shards the machine so the per-connection
    serving fibers spread by work stealing; unset is the classic
    single-core boot. *)

type smp_result = {
  s_cores : int;
  s_requests : int;
  s_wall_ns : int;  (** makespan: the slowest core's lane, measured span *)
  s_cpu_ns : int;  (** total simulated CPU ns across all cores *)
  s_req_per_sec : float;  (** requests over {e wall} (makespan) time *)
  s_steals : int;  (** work-steal migrations (scheduler counter) *)
  s_affinity_hits : int;
  s_switches : int;  (** Execute environment switches *)
  s_faults : int;  (** LitterBox-accounted enclosure faults *)
  s_syscalls : int;  (** non-memory-category system calls, cumulative *)
  s_rt : Encl_golike.Runtime.t;
}

val smp_http :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?cores:int -> ?requests:int ->
  ?conns:int -> ?render_ns:int -> unit -> smp_result
(** The http scenario with a per-request template-render cost, request
    rate measured against the makespan (max core lane) instead of total
    CPU time. Connection fibers spread across the simulated cores by
    work stealing; the client driver stays serial on core 0 (the
    scenario's Amdahl bound). [cores] overrides the core count of
    [rcfg], which defaults to [ENCL_CORES] — the benchmark harness pins
    it per row. *)

val wiki_check : config -> (string, string) result
(** Functional check: create a page over POST, read it back over GET;
    returns the page body seen by the client. *)

type pq_result = {
  p_queries : int;  (** queries completed *)
  p_ns_per_query : int;
      (** makespan ns per query (connect amortized): the slowest core's
          simulated ns over the query loop, divided by the queries *)
  p_rt : Encl_golike.Runtime.t;
}

val pq :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?cores:int -> ?workers:int ->
  ?queries:int -> unit -> pq_result
(** The database driver alone inside an enclosure ([pq_enc]: pq and its
    dependency tree, [net] syscalls narrowed to the database address):
    connect once, then [queries] SELECTs against the mini-Postgres
    remote. The policy miner's connect-narrowing reference scenario.
    [workers] (default 1 — the classic serial loop, byte-identical to
    the old scenario) splits the queries over that many goroutines,
    each with its own connection, spawned inside the enclosure; pin
    [cores] alongside to spread them over a sharded machine. *)

type zc_result = {
  z_requests : int;
  z_req_per_sec : float;
  z_syscalls_per_req : float;
  z_bytes_copied : int;
      (** kernel user-memory passes + guest buffer-to-buffer copies over
          the measured run (the whole boot, in fact — the ledgers are
          machine-lifetime); near zero with {!Encl_sim.Zerocopy} on *)
  z_ring_granted : int;
  z_ring_consumed : int;
  z_ring_reclaimed : int;
      (** rx-ring descriptor balance: granted = consumed + reclaimed at
          quiesce, independent of the Zerocopy flag *)
  z_rt : Encl_golike.Runtime.t;
}

val zerocopy_http :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?requests:int -> ?conns:int ->
  unit -> zc_result
(** The zero-copy data plane end to end: the fasthttp server in zc
    serving mode — requests read in place from the rx view ring
    ("netring:R" in the [zc_srv] policy), 13 KiB static body spliced
    from the VFS with sendfile(2). The identical syscall sequence runs
    with ENCL_ZEROCOPY off (kernel-internal bounce copies), so
    enforcement artifacts are byte-identical across the flag and only
    time + the bytes_copied ledger move. *)

(** {2 Chaos scenarios (deterministic fault injection)} *)

type chaos_result = {
  c_sent : int;  (** client request attempts *)
  c_served : int;  (** attempts the client saw a response for *)
  c_availability : float;  (** served / sent *)
  c_injected : int;  (** fault-injector fires *)
  c_faults : int;  (** LitterBox-accounted enclosure faults *)
  c_kills : int;  (** fibers killed and reaped by the scheduler *)
  c_conns_failed : int;  (** connections torn down by a contained fault *)
  c_quarantined : bool;  (** the targeted enclosure exhausted its budget *)
  c_reconnects : int;  (** pq re-dials (wiki scenario) *)
  c_rt : Encl_golike.Runtime.t;
}

val chaos_http :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?seed:int64 -> ?rate:float ->
  ?budget:int -> ?requests:int -> ?conns:int -> unit -> chaos_result
(** Spurious page faults injected into the request-handler enclosure at
    [rate] per consultation. Each fault costs one connection; after
    [budget] faults the enclosure is quarantined and the handler serves a
    trusted fallback page, so availability recovers. Fully deterministic
    under [seed]. *)

val chaos_wiki :
  config -> ?rcfg:Encl_golike.Runtime.config -> ?seed:int64 -> ?rate:float ->
  ?budget:int -> ?requests:int -> ?conns:int -> unit -> chaos_result
(** Network chaos over the wiki: dropped connections, short reads and
    writes, transient [EINTR]/[EAGAIN] — exercising the retry helpers
    and the pq -> minidb reconnect path. *)

val pp_chaos_result : chaos_result -> string
(** One deterministic [key=value] line (the chaos tool's output). *)

(** {2 The registry}

    Every named scenario exists once, as an {!entry} of {!registry};
    the command-line tools (profile, trace_dump, policyminer) list,
    look up and run scenarios only through it. *)

type outcome = {
  rt : Encl_golike.Runtime.t;  (** the booted runtime, after the workload *)
  summary : string;  (** one human-readable result line *)
  req_per_sec : float option;
      (** the scenario's request rate; [None] for bild and pq, which
          measure per-operation time instead *)
  ns_per_op : int option;
      (** simulated ns per invert (bild) or per query (pq); [None] for
          the servers *)
}

type entry = {
  name : string;
  run :
    config ->
    ?rcfg:Encl_golike.Runtime.config ->
    ?requests:int ->
    ?conns:int ->
    unit ->
    outcome;
      (** Run with default sizing. [rcfg] overrides the runtime
          configuration as for the typed functions. [requests] sets the
          request count of the server scenarios and the query count of
          [pq]; [conns] sets their client connections and [pq]'s
          workers (each worker owns one connection). [bild] is
          iteration-driven and ignores both. *)
}

val registry : entry list
(** ["bild"; "http"; "fasthttp"; "wiki"; "pq"; "smp_http";
    "zerocopy_http"], in that order. *)

val find : ?among:entry list -> string -> (entry, string) result
(** The entry named [name] in [among] (default {!registry}), or an
    ["unknown scenario X (choose from: ...)"] error listing every name
    in [among]. *)
