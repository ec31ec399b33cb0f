(* Bench regression gate: diff a fresh BENCH_results.json against the
   committed bench/baseline.json row-by-row, with a per-metric
   direction. The comparison is a library (rather than living in
   bin/profile.ml) so tests can drive it directly — e.g. the "inflate a
   cost 2x and the gate fires" check. *)

module Json = Export.Json

type direction = Higher_better | Lower_better | Informational

(* Metric families produced by bench/main.ml. Every directional family
   is measured on the simulated clock, which is deterministic: a row
   repeats bit for bit, so any move in the worse direction is a real
   regression and the gate allows none. Timings and slowdowns regress
   upward; throughput, availability and scores regress downward. Host
   wall-clock rows and event counts (injected faults, reconnects,
   failed connections) are recorded for information only: the former
   are noisy, the latter have no inherent "good" direction. *)
let rule_for metric =
  match metric with
  | "host_ns_per_run" -> Informational
  | "req_per_sec" | "availability" | "hit_rate" | "containment_score"
  | "scaling_efficiency" ->
      Higher_better
  | "ms_per_invert" | "policy_width" | "bytes_copied" | "conservative_slowdown"
  | "decoupled_slowdown" | "steal_count" ->
      Lower_better
  | m when String.length m > 3 && Filename.check_suffix m "_ns" -> Lower_better
  | _ -> Informational

type row = {
  workload : string;
  backend : string;
  metric : string;
  value : float;
}

let key r = r.workload ^ "/" ^ r.backend ^ "/" ^ r.metric

type doc = { quick : bool; rows : row list }

let parse_row j =
  let str f = Option.bind (Json.member f j) Json.to_string_opt in
  let num f = Option.bind (Json.member f j) Json.to_float in
  match (str "workload", str "backend", str "metric", num "value") with
  | Some workload, Some backend, Some metric, Some value ->
      Ok { workload; backend; metric; value }
  | _ -> Error ("malformed row: " ^ Json.to_string j)

let parse_doc contents =
  match Json.parse contents with
  | Error e -> Error e
  | Ok j -> (
      let quick =
        match Json.member "quick" j with Some (Json.Bool b) -> b | _ -> false
      in
      match Option.bind (Json.member "rows" j) Json.to_list with
      | None -> Error "missing \"rows\" array"
      | Some rows -> (
          let parsed = List.map parse_row rows in
          match
            List.find_map (function Error e -> Some e | Ok _ -> None) parsed
          with
          | Some e -> Error e
          | None ->
              Ok
                {
                  quick;
                  rows =
                    List.filter_map
                      (function Ok r -> Some r | Error _ -> None)
                      parsed;
                }))

type verdict =
  | Pass  (** equal to the baseline *)
  | Improved of float
  | Regressed of float
  | Info of float
  | Missing  (** baseline row absent from the fresh results *)

type finding = { row : row; fresh : float option; verdict : verdict }

type report = {
  findings : finding list;
  new_rows : row list;  (** fresh rows with no baseline — also a failure *)
  quick_mismatch : bool;
}

(* Directional rows are compared exactly. The delta reported is
   relative, (fresh - base) / |base|, so it is infinite against a zero
   baseline. A zero hit_rate on either side means no probe ran at all
   (the cache was bypassed or the workload issued no filtered
   syscalls), not a cold cache: skip the row rather than flag a bogus
   regression. *)
let judge direction ~metric ~base ~fresh =
  let delta = (fresh -. base) /. Float.abs base in
  if metric = "hit_rate" && (base = 0.0 || fresh = 0.0) then Info delta
  else
    match direction with
    | Informational -> Info delta
    | _ when fresh = base -> Pass
    | Higher_better when fresh < base -> Regressed delta
    | Lower_better when fresh > base -> Regressed delta
    | Higher_better | Lower_better -> Improved delta

let compare_docs ~baseline ~fresh =
  let tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace tbl (key r) r) fresh.rows;
  let findings =
    List.map
      (fun base_row ->
        match Hashtbl.find_opt tbl (key base_row) with
        | None -> { row = base_row; fresh = None; verdict = Missing }
        | Some f ->
            Hashtbl.remove tbl (key base_row);
            {
              row = base_row;
              fresh = Some f.value;
              verdict =
                judge (rule_for base_row.metric) ~metric:base_row.metric
                  ~base:base_row.value ~fresh:f.value;
            })
      baseline.rows
  in
  let new_rows =
    List.filter (fun r -> Hashtbl.mem tbl (key r)) fresh.rows
  in
  { findings; new_rows; quick_mismatch = baseline.quick <> fresh.quick }

(* A fresh row with no baseline entry fails too: otherwise a new bench
   row ships ungated and silently rots until someone notices. The fix is
   deliberate — regenerate with `profile gate --write-baseline`. *)
let failed report =
  report.quick_mismatch
  || report.new_rows <> []
  || List.exists
       (fun f -> match f.verdict with Regressed _ | Missing -> true | _ -> false)
       report.findings

let pct d = Printf.sprintf "%+.1f%%" (100.0 *. d)

let render report =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  if report.quick_mismatch then
    line "FAIL  quick flags differ between baseline and fresh results";
  let counts = Hashtbl.create 8 in
  let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  List.iter
    (fun f ->
      let k = key f.row in
      match f.verdict with
      | Missing ->
          bump "missing";
          line "FAIL  %-40s baseline %.3f, missing from fresh results" k
            f.row.value
      | Regressed d ->
          bump "regressed";
          line "FAIL  %-40s %.3f -> %.3f (%s, exact metric)" k f.row.value
            (Option.get f.fresh) (pct d)
      | Improved d ->
          bump "improved";
          line "  ok  %-40s %.3f -> %.3f (%s, improved)" k f.row.value
            (Option.get f.fresh) (pct d)
      | Pass -> bump "pass"
      | Info _ -> bump "info")
    report.findings;
  List.iter
    (fun r ->
      line
        "FAIL  %-40s %.3f (no baseline row; regenerate with `profile gate \
         --write-baseline`)"
        (key r) r.value)
    report.new_rows;
  let count k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  line "gate: %d rows: %d pass, %d improved, %d informational, %d regressed, %d missing, %d unbaselined"
    (List.length report.findings) (count "pass") (count "improved")
    (count "info") (count "regressed") (count "missing")
    (List.length report.new_rows);
  line "gate: %s" (if failed report then "FAIL" else "PASS");
  Buffer.contents b
