(* enclosure-report: inspect the isolation structure of the bundled
   programs — dependence graph, enclosure memory views, meta-package
   clustering, linked layout, and the verified call-site list.

   Usage:
     dune exec bin/enclosure_report.exe -- graph wiki
     dune exec bin/enclosure_report.exe -- views bild
     dune exec bin/enclosure_report.exe -- clusters fasthttp --backend sfi
     dune exec bin/enclosure_report.exe -- layout figure1
     dune exec bin/enclosure_report.exe -- verif wiki *)

module Runtime = Encl_golike.Runtime
module Lb = Encl_litterbox.Litterbox
module View = Encl_litterbox.View
module Cluster = Encl_litterbox.Cluster
module Image = Encl_elf.Image
module Objfile = Encl_elf.Objfile
module Graph = Encl_pkg.Graph
module Cli = Encl_cli.Cli
open Cmdliner

(* ------------------------------------------------------------------ *)
(* The bundled programs *)

let figure1_packages () =
  [
    Runtime.package "main"
      ~imports:[ "libFx"; "secrets"; "os" ]
      ~functions:[ ("main", 128); ("rcl_body", 64) ]
      ~globals:[ ("private_key", 64, None) ]
      ~enclosures:
        [
          {
            Objfile.enc_name = "rcl";
            enc_policy = "secrets:R; sys=none";
            enc_closure = "rcl_body";
            enc_deps = [ "libFx" ];
          };
        ]
      ();
    Runtime.package "libFx" ~imports:[ "img" ] ~functions:[ ("invert", 256) ] ();
    Runtime.package "img" ~functions:[ ("decode", 128) ] ();
    Runtime.package "secrets" ~functions:[ ("load", 64) ] ();
    Runtime.package "os" ~functions:[ ("getenv", 64) ] ();
  ]

let bild_packages () =
  Runtime.package "main"
    ~imports:[ Encl_apps.Bild.pkg; "secrets" ]
    ~functions:[ ("main", 128); ("rcl_body", 64) ]
    ~enclosures:
      [
        {
          Objfile.enc_name = "rcl";
          enc_policy = "secrets:R; sys=none";
          enc_closure = "rcl_body";
          enc_deps = [ Encl_apps.Bild.pkg ];
        };
      ]
    ()
  :: Runtime.package "secrets" ~functions:[ ("load", 64) ] ()
  :: Encl_apps.Bild.packages ()

let fasthttp_packages () =
  Runtime.package "main"
    ~imports:[ Encl_apps.Fasthttp.pkg ]
    ~functions:[ ("main", 128); ("srv_body", 64) ]
    ~enclosures:
      [
        {
          Objfile.enc_name = "fasthttp_srv";
          enc_policy = "; sys=net";
          enc_closure = "srv_body";
          enc_deps = [ Encl_apps.Fasthttp.pkg ];
        };
      ]
    ()
  :: Encl_apps.Fasthttp.packages ()

let wiki_packages () =
  Encl_apps.Wiki.main_package () :: Encl_apps.Wiki.packages ()

let programs =
  [
    ("figure1", figure1_packages);
    ("bild", bild_packages);
    ("fasthttp", fasthttp_packages);
    ("wiki", wiki_packages);
  ]

let boot name config =
  match List.assoc_opt name programs with
  | None ->
      Error
        (Printf.sprintf "unknown program %s (try: %s)" name
           (String.concat ", " (List.map fst programs)))
  | Some mk ->
      Runtime.boot
        (Encl_apps.Scenarios.runtime_config config)
        ~packages:(mk ()) ~entry:"main"

(* ------------------------------------------------------------------ *)
(* Commands *)

let or_die = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("enclosure-report: " ^ e);
      exit 1

let graph_cmd name =
  let rt = or_die (boot name (Some Lb.Mpk)) in
  print_string (Graph.to_dot (Runtime.image rt).Image.graph)

let views_cmd name =
  let rt = or_die (boot name (Some Lb.Mpk)) in
  let lb = Option.get (Runtime.lb rt) in
  List.iter
    (fun enc ->
      Format.printf "@[<v 2>enclosure %s:@,%a@]@." enc View.pp
        (Option.get (Lb.view_of lb enc)))
    (Lb.enclosure_names lb)

let clusters_cmd name config =
  let rt = or_die (boot name config) in
  match Runtime.lb rt with
  | Some lb -> Format.printf "%a@." Cluster.pp (Lb.cluster lb)
  | None -> or_die (Error "the baseline runs without LitterBox: no clustering")

let layout_cmd name =
  let rt = or_die (boot name (Some Lb.Mpk)) in
  Format.printf "%a@." Image.pp_layout (Runtime.image rt)

let verif_cmd name =
  let rt = or_die (boot name (Some Lb.Mpk)) in
  let image = Runtime.image rt in
  List.iter
    (fun (v : Image.verif_entry) ->
      Printf.printf "%-28s %s\n" v.Image.ve_site (Image.hook_name v.Image.ve_hook))
    image.Image.verif

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring *)

let program_arg =
  let doc =
    "Program to inspect: " ^ String.concat ", " (List.map fst programs) ^ "."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let make_cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ program_arg)

let cmds =
  [
    make_cmd "graph" "Print the package-dependence graph as Graphviz dot." graph_cmd;
    make_cmd "views" "Print every enclosure's computed memory view." views_cmd;
    Cmd.v
      (Cmd.info "clusters" ~doc:"Print the meta-package clustering.")
      Term.(const clusters_cmd $ program_arg $ Cli.backend);
    make_cmd "layout" "Print the linked executable layout (Figure 4)." layout_cmd;
    make_cmd "verif" "Print the verified LitterBox call-site list." verif_cmd;
  ]

let () =
  let info =
    Cmd.info "enclosure-report" ~version:"1.0"
      ~doc:"Inspect enclosure isolation structure"
  in
  exit (Cmd.eval (Cmd.group info cmds))
