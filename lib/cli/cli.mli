(** The command-line layer shared by every tool (profile, trace_dump,
    chaos, policyminer, attacks, enclosure_report, minigo_run) and the
    benchmark harness: one [--backend] spelling, one backend-list
    spelling, one [--requests], one scenario positional, and one way to
    report an unwritable output path. *)

(** {2 Backends} *)

val config_conv : Encl_apps.Scenarios.config Cmdliner.Arg.conv
(** [baseline], [mpk], [vtx], [lwc] or [sfi] ([baseline] is [None]; the
    others are {!Encl_litterbox.Backend.of_string} spellings). Prints
    {!Encl_litterbox.Backend.arg_name} (or [baseline]), so a printed
    value parses back to itself. Anything else is an
    ["unknown backend X"] error. *)

val backend : Encl_apps.Scenarios.config Cmdliner.Term.t
(** [--backend BACKEND] via {!config_conv}; default [mpk]. *)

val backends_conv : Encl_litterbox.Backend.t list Cmdliner.Arg.conv
(** A comma-separated list of backend names, or [all] for
    {!Encl_litterbox.Backend.all}. An unknown name is an error, not a
    silent skip. *)

val backends : Encl_litterbox.Backend.t list Cmdliner.Term.t
(** [--backend LIST] via {!backends_conv}; default all four. *)

(** {2 Workloads} *)

val requests_conv : int Cmdliner.Arg.conv
(** A positive integer: anything below 1 is a command-line error. *)

val requests : int option Cmdliner.Term.t
(** [--requests N] via {!requests_conv}: the workload size (requests for
    the server scenarios, queries for pq); absent means the scenario's
    default. *)

val scenario :
  Encl_apps.Scenarios.entry list -> Encl_apps.Scenarios.entry Cmdliner.Term.t
(** [scenario among] is the required [SCENARIO] positional, resolved by
    {!Encl_apps.Scenarios.find} over [among]. *)

(** {2 Output} *)

val write_file : tool:string -> string -> string -> unit
(** [write_file ~tool path contents]. An unwritable [path] ends the run
    with ["<tool>: cannot write <reason>"] on stderr and exit status 1,
    not with an uncaught exception. *)

val out_dir : default:string -> doc:string -> string Cmdliner.Term.t
(** [--out-dir DIR]. *)

val ensure_dir : tool:string -> string -> unit
(** Create a directory and its missing parents; failure (a regular file
    in the way, an unwritable parent) ends the run as in {!write_file}. *)
