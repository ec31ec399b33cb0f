(* profile: causal-span profiler for the simulated machine.

   Runs a named scenario with observability enabled and answers "where
   did every simulated nanosecond go?" — the attribution ledger charges
   each clock tick to the innermost open span's (enclosure x category)
   cell, so the breakdown is exact (conservation is checked, not
   assumed) and byte-identical across runs.

   Usage:
     dune exec bin/profile.exe -- http --backend mpk
     dune exec bin/profile.exe -- wiki --backend vtx --top 20
     dune exec bin/profile.exe -- overhead            # one experiment's claim
     dune exec bin/profile.exe -- gate                # bench regression gate
     dune exec bin/profile.exe -- gate --write-baseline

   Scenario runs write flamegraph.folded (collapsed stacks, feed to
   flamegraph.pl) and profile.speedscope.json (load at speedscope.app)
   into --out-dir. Each Experiments.registry entry (overhead, fastpath,
   sysring, zerocopy, crossover, smp, seccomp) is a subcommand that
   exits 1 unless its claim holds. *)

module Runtime = Encl_golike.Runtime
module Machine = Encl_litterbox.Machine
module Lb = Encl_litterbox.Litterbox
module K = Encl_kernel.Kernel
module Scenarios = Encl_apps.Scenarios
module Experiments = Encl_apps.Experiments
module Obs = Encl_obs.Obs
module Span = Encl_obs.Span
module Attrib = Encl_obs.Attrib
module Export = Encl_obs.Export
module Gate = Encl_obs.Gate
module Cli = Encl_cli.Cli
open Cmdliner

(* The name in error messages: an unwritable output path ends the run
   with "profile: cannot write ..." and exit status 1. *)
let tool = "profile"

(* Run a registry scenario with the event sink and span ledger on. *)
let run_scenario name backend requests =
  Result.map
    (fun (e : Scenarios.entry) ->
      Obs.with_tracing ~witness:false (fun () -> e.run backend ?requests ()))
    (Scenarios.find name)

(* Exit non-zero if any simulated nanosecond went missing: the ledger
   must account for exactly the elapsed clock. *)
let conservation_problems obs =
  let a = Obs.attribution obs in
  if Attrib.conserved a then []
  else
    [
      Printf.sprintf "conservation violated: attributed %dns of %dns elapsed"
        (Attrib.total a) (Attrib.elapsed a);
    ]

let span_drop_warning obs =
  let spans = Obs.spans obs in
  if Span.dropped spans > 0 then
    Printf.eprintf
      "profile: warning: span ring overflowed, %d of %d spans evicted \
       (attribution and close counts remain exact)\n"
      (Span.dropped spans) (Span.total spans)

(* ------------------------------------------------------------------ *)
(* Scenario subcommands *)

let run name backend requests out_dir top =
  match run_scenario name backend requests with
  | Error e ->
      prerr_endline ("profile: " ^ e);
      1
  | Ok { Scenarios.rt; summary; _ } -> (
      let obs = (Runtime.machine rt).Machine.obs in
      Printf.printf "%s under %s: %s\n" name
        (Scenarios.config_name backend)
        summary;
      print_string (Export.attrib_table ~top obs);
      (match Runtime.lb rt with
      | Some lb when Fastpath.enabled () ->
          let hits, misses =
            K.seccomp_cache_stats (Runtime.machine rt).Machine.kernel
          in
          Printf.printf
            "fast path: %d/%d switches elided, %d/%d transfers coalesced, \
             seccomp cache %d/%d hits\n"
            (Lb.switch_elided_count lb) (Lb.switch_count lb)
            (Lb.transfer_coalesced_count lb)
            (Lb.transfer_count lb) hits (hits + misses)
      | Some _ | None -> ());
      let folded_path = Filename.concat out_dir "flamegraph.folded" in
      let speedscope_path =
        Filename.concat out_dir "profile.speedscope.json"
      in
      Cli.write_file ~tool folded_path (Export.flamegraph_folded obs);
      Cli.write_file ~tool speedscope_path (Export.speedscope_json obs);
      let spans = Obs.spans obs in
      Printf.printf "%d spans (%d dropped from ring) -> %s, %s\n"
        (Span.total spans) (Span.dropped spans) folded_path speedscope_path;
      span_drop_warning obs;
      match conservation_problems obs with
      | [] -> 0
      | problems ->
          List.iter (fun p -> prerr_endline ("profile: " ^ p)) problems;
          1)

(* ------------------------------------------------------------------ *)
(* Experiment subcommands: one per Experiments.registry entry *)

(* Run an experiment's legs at full size, traced (the overhead and
   fastpath judges read the attribution ledger), with [requests]
   overriding every leg's request count; print one line per leg, then
   every problem the judges find, and exit 1 if there is one. *)
let experiment (e : Experiments.t) requests out =
  let run = Experiments.runner () in
  let run (leg : Experiments.leg) =
    let requests = if requests = None then leg.requests else requests in
    run { leg with traced = true; requests }
  in
  let results = List.map run (Experiments.legs e ~quick:false) in
  List.iter (fun r -> print_endline (Experiments.describe e r)) results;
  Option.iter
    (fun path ->
      Cli.write_file ~tool path
        (Export.Json.to_string (Experiments.artifact e results));
      Printf.printf "%s: wrote %s (%d rows)\n" e.name path
        (List.length results))
    out;
  match Experiments.problems e run ~quick:false with
  | [] ->
      Printf.printf "%s: holds: %s\n" e.name e.doc;
      0
  | problems ->
      List.iter (fun p -> prerr_endline ("profile: " ^ e.name ^ ": " ^ p)) problems;
      1

(* ------------------------------------------------------------------ *)
(* gate: diff fresh bench results against the committed baseline *)

let read_doc label path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (label ^ ": " ^ e)
  | contents -> (
      match Gate.parse_doc contents with
      | Ok doc -> Ok doc
      | Error e -> Error (Printf.sprintf "%s (%s): %s" label path e))

(* --write-baseline: promote the fresh results to be the committed
   baseline. Deliberately the only way to bless new or changed rows —
   the gate fails on any unbaselined row, so adding a bench row means
   rerunning the bench and regenerating the baseline here. The fresh
   file is parsed first (a malformed baseline would wedge every later
   gate run) and copied verbatim. *)
let write_baseline baseline_path results_path =
  match In_channel.with_open_bin results_path In_channel.input_all with
  | exception Sys_error e ->
      prerr_endline ("profile: results: " ^ e);
      1
  | contents -> (
      match Gate.parse_doc contents with
      | Error e ->
          prerr_endline
            (Printf.sprintf "profile: results (%s): %s" results_path e);
          1
      | Ok doc ->
          Cli.write_file ~tool baseline_path contents;
          Printf.printf "gate: wrote %s (%d rows, quick=%b) from %s\n"
            baseline_path
            (List.length doc.Gate.rows)
            doc.Gate.quick results_path;
          0)

let gate baseline_path results_path write =
  if write then write_baseline baseline_path results_path
  else
    match
      (read_doc "baseline" baseline_path, read_doc "results" results_path)
    with
    | Error e, _ | _, Error e ->
        prerr_endline ("profile: " ^ e);
        1
    | Ok baseline, Ok fresh ->
        let report = Gate.compare_docs ~baseline ~fresh in
        print_string (Gate.render report);
        if Gate.failed report then 1 else 0

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring *)

let out_dir_arg =
  Cli.out_dir ~default:"."
    ~doc:"Directory receiving flamegraph.folded and profile.speedscope.json."

let top_arg =
  Arg.(
    value
    & opt int 12
    & info [ "top" ] ~docv:"N"
        ~doc:"Attribution cells to print before folding the rest.")

let scenario_cmd sc =
  Cmd.v
    (Cmd.info sc
       ~doc:("Profile the " ^ sc ^ " scenario: attribution table + stacks."))
    Term.(const (run sc) $ Cli.backend $ Cli.requests $ out_dir_arg $ top_arg)

let experiment_cmd (e : Experiments.t) =
  let out =
    match e.artifact with
    | None -> Term.const None
    | Some default ->
        Term.(
          const Option.some
          $ Arg.(
              value
              & opt string default
              & info [ "out" ] ~docv:"FILE"
                  ~doc:"JSON file receiving one row per leg."))
  in
  Cmd.v
    (Cmd.info e.name ~doc:("Check that " ^ e.doc ^ "; exit 1 otherwise."))
    Term.(const (experiment e) $ Cli.requests $ out)

let gate_cmd =
  let baseline_arg =
    Arg.(
      value
      & opt string "bench/baseline.json"
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Committed baseline rows.")
  in
  let results_arg =
    Arg.(
      value
      & opt string "BENCH_results.json"
      & info [ "results" ] ~docv:"FILE" ~doc:"Fresh bench results to judge.")
  in
  let write_arg =
    Arg.(
      value & flag
      & info [ "write-baseline" ]
          ~doc:
            "Instead of judging, promote the fresh results file to be the \
             committed baseline (the deliberate way to bless new or changed \
             bench rows).")
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "Diff fresh BENCH_results.json rows against bench/baseline.json \
          exactly, per metric direction; exit 1 on regression, on a vanished \
          row, or on a fresh row with no baseline entry.")
    Term.(const gate $ baseline_arg $ results_arg $ write_arg)

let () =
  let info =
    Cmd.info "profile" ~version:"1.0"
      ~doc:"Attribute every simulated nanosecond to (enclosure x category)"
  in
  let cmds =
    List.map
      (fun (e : Scenarios.entry) -> scenario_cmd e.name)
      Scenarios.registry
    @ List.map experiment_cmd Experiments.registry
    @ [ gate_cmd ]
  in
  exit (Cmd.eval' (Cmd.group info cmds))
