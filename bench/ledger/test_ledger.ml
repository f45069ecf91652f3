(* The ledger's own checks: its traced loop reproduces the user's entry
   point exactly, its tail-percentile and self-time rules, and
   BENCHMARK.json agreeing with the metric tables in the code. *)

open Ledger_core
module R = Experiments.Runner

(* (a) The traced loop is pause-for-pause the loop Runner.execute runs. *)
let test_fidelity app setup () =
  let options = { R.default_options with gc_scale = 0.25; verify = false } in
  let profile = Workloads.Apps.find app in
  let run = R.execute options profile setup in
  let expected =
    List.map (fun r -> r.Workloads.Mutator.pause) run.R.result.Workloads.Mutator.pauses
  in
  let traced = Sweep.run_traced (Span.create ()) options profile setup in
  Alcotest.(check int) "pause count" (List.length expected)
    (List.length traced.Sweep.pauses);
  Alcotest.(check string) "pauses byte-identical"
    (Marshal.to_string expected [])
    (Marshal.to_string traced.Sweep.pauses [])

(* (b) The tail is reported at the highest percentile with at least ten
   samples beyond it. *)
let test_tail_percentile () =
  let name n = Option.map Stats.percentile_name (Stats.tail_percentile n) in
  let check n want = Alcotest.(check (option string)) (Printf.sprintf "n=%d" n) want (name n) in
  check 19 None;
  check 20 (Some "p50");
  check 99 (Some "p50");
  check 100 (Some "p90");
  check 140 (Some "p90");
  check 1000 (Some "p99");
  check 10_000 (Some "p99.9")

let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "statistics.quantiles(range(1, 11), n=4)"
    [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ]

(* (c) Overlapping children are subtracted once, as a union. *)
let test_self_time_union () =
  let now = ref 0.0 in
  let spans = Span.create ~clock:(fun () -> !now) () in
  let parent = Span.enter spans "parent" in
  Span.add spans "a" ~start:1.0 ~stop:4.0;
  Span.add spans "b" ~start:3.0 ~stop:6.0;
  Span.add spans "c" ~start:8.0 ~stop:9.0;
  Span.add spans "outside" ~start:9.5 ~stop:12.0;
  now := 10.0;
  Span.leave spans parent;
  (* children cover [1,6] + [8,9] + [9.5,10] = 6.5 of the parent's 10 *)
  Alcotest.(check (float 1e-12)) "self = duration - union" 3.5
    (Span.self_time spans parent);
  Alcotest.(check (float 1e-12)) "top level = the parent" 10.0
    (Span.top_level_time spans)

(* BENCHMARK.json names the same workloads and metrics as the code. *)
let test_benchmark_json () =
  let open Nvmtrace.Json in
  let json =
    match of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let list k = match member k json with Some (List l) -> l | _ -> Alcotest.fail k in
  let str k j = match member k j with Some (Str s) -> s | _ -> Alcotest.fail k in
  Alcotest.(check (list string)) "workloads" Workload.names
    (List.map (str "name") (list "workloads"));
  let check_table key (table : Metric.t list) ~bounds =
    Alcotest.(check (list string)) key
      (List.map
         (fun (m : Metric.t) ->
           String.concat " "
             ([ m.name; m.unit; Metric.better_name m.better ]
             @ if bounds then [ Printf.sprintf "%g" m.bound ] else []))
         table)
      (List.map
         (fun j ->
           String.concat " "
             ([ str "name" j; str "unit" j; str "better" j ]
             @
             if bounds then
               [ Printf.sprintf "%g" (Option.get (Option.bind (member "bound" j) to_float)) ]
             else []))
         (list key))
  in
  check_table "end_to_end" Metric.end_to_end ~bounds:true;
  check_table "per_layer" Metric.per_layer ~bounds:false

let () =
  Alcotest.run "ledger"
    [
      ( "fidelity",
        List.map
          (fun (app, setup) ->
            Alcotest.test_case
              (Printf.sprintf "%s %s" app (R.setup_name setup))
              `Quick (test_fidelity app setup))
          [
            ("movie-lens", R.Vanilla); ("movie-lens", R.All_opts);
            ("page-rank", R.Vanilla); ("page-rank", R.All_opts);
          ] );
      ( "rules",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "self time subtracts the union" `Quick
            test_self_time_union;
        ] );
      ( "benchmark",
        [ Alcotest.test_case "BENCHMARK.json mirrors the tables" `Quick test_benchmark_json ] );
    ]
