(* Tests of the experiment registry (lib/apps/experiments.ml): names and
   row keys are unique, every claim holds at CI size, and every claim is
   load-bearing — judged with each pair's treatment leg in place of its
   control, it finds a problem. *)

module Experiments = Encl_apps.Experiments

(* One runner for the whole suite, so a leg several tests read runs
   once; traced, because the overhead and fastpath judges read the
   attribution ledger. *)
let run =
  let run = Experiments.runner () in
  fun (leg : Experiments.leg) -> run { leg with traced = true }

let names = List.map (fun (e : Experiments.t) -> e.name) Experiments.registry

let tests =
  [
    Alcotest.test_case "names are unique" `Quick (fun () ->
        Alcotest.(check int) "no duplicates" (List.length names)
          (List.length (List.sort_uniq compare names)));
    Alcotest.test_case "no two rows share a key" `Slow (fun () ->
        let keys =
          List.concat_map
            (fun (e : Experiments.t) ->
              List.map
                (fun (r : Experiments.row) ->
                  String.concat "/" [ r.workload; r.backend; r.metric ])
                (e.rows run ~quick:true))
            Experiments.registry
        in
        let dups =
          List.filter
            (fun k -> List.length (List.filter (String.equal k) keys) > 1)
            keys
        in
        Alcotest.(check (list string)) "duplicate keys" [] dups);
    Alcotest.test_case "every claim holds at CI size" `Slow (fun () ->
        List.iter
          (fun (e : Experiments.t) ->
            Alcotest.(check (list string)) e.name []
              (Experiments.problems e run ~quick:true))
          Experiments.registry);
    Alcotest.test_case "every claim is load-bearing" `Slow (fun () ->
        List.iter
          (fun (e : Experiments.t) ->
            let problems =
              List.concat_map
                (fun (p : Experiments.pair) -> p.judge (run p.on) (run p.on))
                (e.pairs ~quick:true)
            in
            Alcotest.(check bool)
              (e.name ^ " judged against its own treatment finds a problem")
              true (problems <> []))
          Experiments.registry);
  ]

let () = Alcotest.run "experiments" [ ("registry", tests) ]
