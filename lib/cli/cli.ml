open Cmdliner
module Backend = Encl_litterbox.Backend
module Scenarios = Encl_apps.Scenarios

let config_conv =
  let parse s =
    if String.lowercase_ascii s = "baseline" then Ok None
    else
      match Backend.of_string s with
      | Some b -> Ok (Some b)
      | None ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown backend %s (expected baseline, mpk, vtx, lwc or sfi)"
                 s))
  in
  let print ppf c =
    Format.pp_print_string ppf
      (match c with None -> "baseline" | Some b -> Backend.arg_name b)
  in
  Arg.conv (parse, print)

let backend =
  Arg.(
    value
    & opt config_conv (Some Backend.Mpk)
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:"baseline, mpk, vtx, lwc or sfi.")

let backends_conv =
  let parse s =
    if String.lowercase_ascii s = "all" then Ok Backend.all
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
            match Backend.of_string (String.trim n) with
            | Some b -> go (b :: acc) rest
            | None ->
                Error
                  (`Msg
                    (Printf.sprintf
                       "unknown backend %S (expected mpk, vtx, lwc, sfi or \
                        all)"
                       n)))
      in
      go [] (String.split_on_char ',' s)
  in
  let print ppf bs =
    Format.pp_print_string ppf
      (String.concat "," (List.map Backend.arg_name bs))
  in
  Arg.conv (parse, print)

let backends =
  Arg.(
    value
    & opt backends_conv Backend.all
    & info [ "backend" ] ~docv:"LIST"
        ~doc:"Comma-separated backends (mpk, vtx, lwc, sfi) or all.")

let requests_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "must be at least 1, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let requests =
  Arg.(
    value
    & opt (some requests_conv) None
    & info [ "requests" ] ~docv:"N"
        ~doc:
          "Workload size: requests for the server scenarios, queries for pq \
           (scenario default if absent).")

let scenario among =
  let parse s = Result.map_error (fun e -> `Msg e) (Scenarios.find ~among s) in
  let print ppf (e : Scenarios.entry) = Format.pp_print_string ppf e.name in
  Arg.(
    required
    & pos 0 (some (conv (parse, print))) None
    & info [] ~docv:"SCENARIO")

let cannot_write ~tool e =
  prerr_endline (tool ^ ": cannot write " ^ e);
  exit 1

let write_file ~tool path contents =
  match
    Out_channel.with_open_text path (fun oc -> output_string oc contents)
  with
  | () -> ()
  | exception Sys_error e -> cannot_write ~tool e

let out_dir ~default ~doc =
  Arg.(value & opt string default & info [ "out-dir" ] ~docv:"DIR" ~doc)

let ensure_dir ~tool dir =
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  try mkdir_p dir with Sys_error e -> cannot_write ~tool e
