(* Benchmark harness.

   Two layers:

   - Bechamel micro-benchmarks of the core data structures the paper's
     mechanisms rely on (header-map put/get, work-stack push/pop, LLC
     access, PRNG, memory-model access) — real wall-clock numbers for
     this library;
   - the figure/table regeneration harness: every entry in
     Experiments.Registry, reproducing the paper's evaluation artefacts
     on the simulated substrate.

   Usage:  main.exe [micro | <experiment-id> ...]
   With no arguments, runs the micro-benchmarks and then every
   experiment. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)

(* Each micro-benchmark draws from its own locally seeded PRNG state:
   the global [Random] state would make runs order-dependent (and, under
   OCaml 5, is domain-local anyway). *)

let bench_header_map_put =
  let rng = Random.State.make [| 0x5eed; 1 |] in
  Test.make_with_resource ~name:"header_map.put" Test.multiple
    ~allocate:(fun () ->
      Nvmgc.Header_map.create ~entries:65536 ~search_bound:16)
    ~free:ignore
    (Staged.stage (fun map ->
         let key = 1 + (Random.State.int rng 1_000_000 * 8) in
         ignore (Nvmgc.Header_map.put map ~key ~value:(key + 8))))

let bench_header_map_get =
  let map = Nvmgc.Header_map.create ~entries:65536 ~search_bound:16 in
  for i = 1 to 30_000 do
    ignore (Nvmgc.Header_map.put map ~key:(i * 8) ~value:((i * 8) + 8))
  done;
  let rng = Random.State.make [| 0x5eed; 2 |] in
  Test.make ~name:"header_map.get"
    (Staged.stage (fun () ->
         ignore
           (Nvmgc.Header_map.get map ~key:(8 * (1 + Random.State.int rng 60_000)))))

let bench_work_stack =
  Test.make_with_resource ~name:"work_stack.push+pop" Test.multiple
    ~allocate:(fun () -> Nvmgc.Work_stack.create ())
    ~free:ignore
    (Staged.stage (fun stack ->
         Nvmgc.Work_stack.push stack ~clock:0.0 ~slot:2
           ~home:Nvmgc.Work_stack.no_home;
         ignore (Nvmgc.Work_stack.pop_nonempty stack)))

let bench_llc =
  let llc = Memsim.Llc.create ~capacity_bytes:(1 lsl 20) ~ways:11 in
  let rng = Random.State.make [| 0x5eed; 3 |] in
  Test.make ~name:"llc.access"
    (Staged.stage (fun () ->
         ignore
           (Memsim.Llc.access_run llc
              (Random.State.int rng (1 lsl 26) * 64)
              ~lines:1 ~write:false ~seq:false ~nvm:true
             : Memsim.Llc.outcome)))

let bench_prng =
  let rng = Simstats.Prng.create 1 in
  Test.make ~name:"prng.int"
    (Staged.stage (fun () -> ignore (Simstats.Prng.int rng 1024)))

let bench_memory_access =
  let memory = Memsim.Memory.create Memsim.Memory.default_config in
  let clock = ref 0.0 in
  let rng = Random.State.make [| 0x5eed; 4 |] in
  Test.make ~name:"memory.access"
    (Staged.stage (fun () ->
         Memsim.Memory.access_run_into memory ~now_ns:!clock
           ~addr:(Random.State.int rng (1 lsl 26) * 64)
           ~space:Memsim.Access.Nvm ~kind:Memsim.Access.Read
           ~pattern:Memsim.Access.Random ~bytes:64;
         clock := !clock +. Memsim.Memory.last_duration memory))

(* Telemetry overhead: the hooks are compiled into every hot path of the
   evacuation loop, so the disabled case (no tracer/registry installed —
   the default) must cost no more than a load and a compare.  The "on"
   variants bound what enabling --trace/--metrics costs per event. *)

let bench_trace_guard_off =
  Test.make ~name:"telemetry.tracing(off)"
    (Staged.stage (fun () ->
         (* The guard every emission site in the evacuation loop sits
            behind: a global load and compare. *)
         if Nvmtrace.Hooks.tracing () then
           Nvmtrace.Hooks.instant ~lane:1 ~name:"steal" ~ts_ns:1.0 ()))

let bench_trace_instant_off =
  Test.make ~name:"telemetry.instant(off)"
    (Staged.stage (fun () ->
         Nvmtrace.Hooks.instant ~lane:1 ~name:"steal" ~ts_ns:1.0 ()))

let bench_trace_instant_on =
  Test.make_with_resource ~name:"telemetry.instant(on)" Test.multiple
    ~allocate:(fun () ->
      let tracer = Nvmtrace.Tracer.create () in
      Nvmtrace.Hooks.set_tracer (Some tracer);
      tracer)
    ~free:(fun _ -> Nvmtrace.Hooks.set_tracer None)
    (Staged.stage (fun _ ->
         Nvmtrace.Hooks.instant ~lane:1 ~name:"steal" ~ts_ns:1.0 ()))

let bench_metrics_count_off =
  Test.make ~name:"telemetry.count(off)"
    (Staged.stage (fun () -> Nvmtrace.Hooks.count "gc.steals"))

let bench_metrics_count_on =
  Test.make_with_resource ~name:"telemetry.count(on)" Test.multiple
    ~allocate:(fun () ->
      let metrics = Nvmtrace.Metrics.create () in
      Nvmtrace.Hooks.set_metrics (Some metrics);
      metrics)
    ~free:(fun _ -> Nvmtrace.Hooks.set_metrics None)
    (Staged.stage (fun _ -> Nvmtrace.Hooks.count "gc.steals"))

let micro_tests =
  [
    bench_header_map_put; bench_header_map_get; bench_work_stack; bench_llc;
    bench_prng; bench_memory_access; bench_trace_guard_off;
    bench_trace_instant_off;
    bench_trace_instant_on; bench_metrics_count_off; bench_metrics_count_on;
  ]

let run_micro () =
  print_endline "## Micro-benchmarks (real wall-clock, Bechamel)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1500 ~quota:(Time.second 0.4) ~kde:None () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all
             (Analyze.ols ~bootstrap:0 ~r_square:false
                ~predictors:[| Measure.run |])
             Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-24s %10.1f ns/op\n" name est
          | Some _ | None -> Printf.printf "%-24s (no estimate)\n" name)
        results)
    micro_tests;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure/table regeneration                                           *)

let run_experiment options (e : Experiments.Registry.entry) =
  Printf.printf "==== %s: %s ====\n%!" e.Experiments.Registry.id
    e.Experiments.Registry.description;
  let t0 = Unix.gettimeofday () in
  e.Experiments.Registry.run options;
  Printf.printf "(%s took %.1fs)\n\n%!" e.Experiments.Registry.id
    (Unix.gettimeofday () -. t0)

let () =
  let options = Experiments.Runner.default_options in
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] ->
      run_micro ();
      List.iter (run_experiment options) Experiments.Registry.all
  | args ->
      List.iter
        (fun arg ->
          if arg = "micro" then run_micro ()
          else begin
            match Experiments.Registry.find arg with
            | Some e -> run_experiment options e
            | None ->
                Printf.eprintf "unknown experiment %S; known: micro %s\n" arg
                  (String.concat " " (Experiments.Registry.ids ()));
                exit 1
          end)
        args
