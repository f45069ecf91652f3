(* The multicore execution engine: the work-stealing domain pool itself,
   and the determinism contract layered on top of it — figure sweeps and
   fuzz campaigns must produce byte-identical output at any --jobs
   value. *)

module Pool = Exec.Pool
module Runner = Experiments.Runner

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)

let test_pool_order_and_exactly_once () =
  let n = 103 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let results =
    Pool.with_pool ~domains:4 (fun pool ->
        Pool.run pool
          (fun i ->
            Atomic.incr hits.(i);
            i * i)
          n)
  in
  Alcotest.(check int) "result count" n (Array.length results);
  Array.iteri
    (fun i v ->
      Alcotest.(check int) (Printf.sprintf "result %d in submission order" i)
        (i * i) v)
    results;
  Array.iteri
    (fun i h ->
      Alcotest.(check int) (Printf.sprintf "task %d ran exactly once" i) 1
        (Atomic.get h))
    hits

let test_pool_empty_and_single () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "n = 0 -> empty" 0 (Array.length (Pool.run pool (fun i -> i) 0));
      let one = Pool.run pool (fun i -> i + 7) 1 in
      Alcotest.(check (array int)) "n = 1" [| 7 |] one)

exception Boom of int

let test_pool_reraises_lowest_failure () =
  let raised =
    try
      Pool.with_pool ~domains:4 (fun pool ->
          ignore
            (Pool.run pool
               (fun i -> if i = 3 || i = 7 then raise (Boom i) else i)
               12);
          None)
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "lowest failing index wins" (Some 3) raised

let test_pool_reusable_across_batches () =
  Pool.with_pool ~domains:2 (fun pool ->
      for round = 1 to 5 do
        let r = Pool.run pool (fun i -> (round * 100) + i) 9 in
        Array.iteri
          (fun i v ->
            Alcotest.(check int) "batch value" ((round * 100) + i) v)
          r
      done)

(* ------------------------------------------------------------------ *)
(* Sweep determinism: a figure harness with full telemetry enabled must
   emit byte-identical trace JSON, metrics CSV and console log at
   jobs = 1 and jobs = 4. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let sweep_apps =
  List.filter
    (fun a -> List.mem a.Workloads.App_profile.name [ "page-rank"; "als" ])
    Workloads.Apps.all

let run_sweep_with_telemetry ~jobs ~tag =
  let dir = Filename.get_temp_dir_name () in
  let trace = Filename.concat dir (Printf.sprintf "exec_%s.trace.json" tag) in
  let metrics = Filename.concat dir (Printf.sprintf "exec_%s.metrics.csv" tag) in
  let console = Filename.concat dir (Printf.sprintf "exec_%s.console.log" tag) in
  let options =
    { Runner.default_options with gc_scale = 0.2; jobs; threads = 8 }
  in
  let tracer = Nvmtrace.Tracer.create () in
  let registry = Nvmtrace.Metrics.create () in
  let console_oc = open_out console in
  Nvmtrace.Console.install ~channel:console_oc ~level:Logs.Info ();
  Nvmtrace.Hooks.set_tracer (Some tracer);
  Nvmtrace.Hooks.set_metrics (Some registry);
  let rows =
    Fun.protect
      ~finally:(fun () ->
        Nvmtrace.Hooks.set_tracer None;
        Nvmtrace.Hooks.set_metrics None;
        Nvmtrace.Console.install ~channel:stdout ~level:Logs.Error ();
        flush console_oc;
        close_out console_oc)
      (fun () -> Experiments.Fig5_gc_time.compute ~apps:sweep_apps options)
  in
  Out_channel.with_open_bin trace (fun oc ->
      Nvmtrace.Sinks.write_chrome_trace oc tracer);
  Out_channel.with_open_bin metrics (fun oc ->
      Nvmtrace.Sinks.write_metrics_csv oc (Nvmtrace.Metrics.snapshot registry));
  (rows, read_file trace, read_file metrics, read_file console)

let test_sweep_byte_identical_across_jobs () =
  let rows1, trace1, metrics1, console1 =
    run_sweep_with_telemetry ~jobs:1 ~tag:"j1"
  in
  let rows4, trace4, metrics4, console4 =
    run_sweep_with_telemetry ~jobs:4 ~tag:"j4"
  in
  Alcotest.(check bool) "rows equal" true (rows1 = rows4);
  Alcotest.(check string) "chrome trace byte-identical" trace1 trace4;
  Alcotest.(check string) "metrics CSV byte-identical" metrics1 metrics4;
  Alcotest.(check bool) "console log non-empty" true
    (String.length console1 > 0);
  Alcotest.(check string) "console log byte-identical" console1 console4

(* ------------------------------------------------------------------ *)
(* Fuzz determinism                                                    *)

let fuzz_variants = [ "g1-baseline"; "ps-all" ]

let test_fuzz_report_identical_across_jobs () =
  let campaign jobs =
    Simcheck.Fuzz.run ~jobs ~cases:8 ~seed:123 ~variants:fuzz_variants ()
  in
  let r1 = campaign 1 and r4 = campaign 4 in
  Alcotest.(check bool) "jobs=1 campaign passes" true (Simcheck.Fuzz.ok r1);
  Alcotest.(check int) "all cases ran" 8 r1.Simcheck.Fuzz.cases_run;
  Alcotest.(check string) "report byte-identical"
    (Simcheck.Fuzz.report_to_string r1)
    (Simcheck.Fuzz.report_to_string r4)

(* Corrupt one variant's post-pause heap (mutation-testing seam): both
   job counts must detect the same injected differential failure and
   shrink it to the same minimal reproducer. *)
let tamper name (inst : Simcheck.Spec.instance) =
  if name = "ps-all" then begin
    let unbound = ref false in
    (* The pause freed the objects it dropped; only live ones have an
       address to unbind. *)
    let try_unbind o =
      let heap = inst.Simcheck.Spec.heap in
      let st = Simheap.Heap.store heap in
      if (not !unbound) && Simheap.Objmodel.is_live st o then begin
        let addr = Simheap.Objmodel.addr st o in
        if Option.is_some (Simheap.Heap.lookup heap addr) then begin
          Simheap.Heap.unbind heap addr;
          unbound := true
        end
      end
    in
    Array.iter try_unbind inst.Simcheck.Spec.holders;
    Array.iter try_unbind inst.Simcheck.Spec.objects
  end

let test_fuzz_tamper_same_failure_across_jobs () =
  let campaign jobs =
    Simcheck.Fuzz.run ~jobs ~cases:4 ~seed:99 ~variants:fuzz_variants ~tamper ()
  in
  let r1 = campaign 1 and r4 = campaign 4 in
  Alcotest.(check bool) "tampered campaign fails" false (Simcheck.Fuzz.ok r1);
  Alcotest.(check bool) "at least one failure" true
    (List.length r1.Simcheck.Fuzz.failures > 0);
  let f1 = List.hd r1.Simcheck.Fuzz.failures in
  let f4 = List.hd r4.Simcheck.Fuzz.failures in
  Alcotest.(check string) "same failing variant" f1.Simcheck.Fuzz.variant
    f4.Simcheck.Fuzz.variant;
  Alcotest.(check int) "same case index" f1.Simcheck.Fuzz.case_index
    f4.Simcheck.Fuzz.case_index;
  Alcotest.(check bool) "same shrunk reproducer" true
    (f1.Simcheck.Fuzz.shrunk_spec = f4.Simcheck.Fuzz.shrunk_spec
    && f1.Simcheck.Fuzz.shrunk_threads = f4.Simcheck.Fuzz.shrunk_threads
    && f1.Simcheck.Fuzz.shrunk_sched_seed = f4.Simcheck.Fuzz.shrunk_sched_seed
    && f1.Simcheck.Fuzz.shrunk_variant = f4.Simcheck.Fuzz.shrunk_variant);
  Alcotest.(check string) "whole report byte-identical"
    (Simcheck.Fuzz.report_to_string r1)
    (Simcheck.Fuzz.report_to_string r4)

(* The crash-consistency campaign makes the same promise: seeds and
   crash steps are drawn up-front as pure functions of --seed, so the
   report is byte-identical whether cases run serially or on the pool.
   60 cases x 3 variants x up-to-3 runs clears the serial-fallback
   threshold at jobs = 8, so this genuinely exercises the parallel
   path (asserted via effective_jobs below). *)
let test_crash_report_identical_across_jobs () =
  Alcotest.(check bool) "campaign large enough to parallelize" true
    (Simcheck.Fuzz.effective_jobs ~cases:60
       ~variants:(3 * List.length Simcheck.Fuzz.crash_variant_names)
       ~max_objects:40 8
    > 1);
  let campaign jobs = Simcheck.Fuzz.run_crash ~jobs ~cases:60 ~seed:2026 () in
  let r1 = campaign 1 and r8 = campaign 8 in
  Alcotest.(check bool) "jobs=1 crash campaign passes" true
    (Simcheck.Fuzz.ok r1);
  Alcotest.(check int) "all cases ran" 60 r1.Simcheck.Fuzz.cases_run;
  Alcotest.(check string) "crash report byte-identical"
    (Simcheck.Fuzz.report_to_string r1)
    (Simcheck.Fuzz.report_to_string r8)

(* ------------------------------------------------------------------ *)
(* Sizing and retention (the parallel-engine-slowdown regression tests) *)

let test_pool_clamps_to_host () =
  let host = Pool.host_domains () in
  Pool.with_pool ~domains:(host + 61) (fun pool ->
      Alcotest.(check int) "requested preserved" (host + 61)
        (Pool.requested pool);
      Alcotest.(check int) "size clamped to host domains" host (Pool.size pool);
      Alcotest.(check int) "effective_jobs agrees" (Pool.size pool)
        (Pool.effective_jobs (host + 61));
      (* A clamped pool still honours the determinism contract. *)
      let r = Pool.run pool (fun i -> i * 3) 17 in
      Array.iteri
        (fun i v -> Alcotest.(check int) "clamped pool result" (i * 3) v)
        r);
  Pool.with_pool ~domains:0 (fun pool ->
      Alcotest.(check int) "domains:0 clamps up to 1" 1 (Pool.size pool))

(* The batch closure (and everything it captures) must become garbage as
   soon as the batch completes — an idle pool holding the last sweep's
   tasks alive pins every tracer/metrics sink they captured. *)
let payload_weak = Weak.create 1

let[@inline never] run_batch_with_payload pool =
  let payload = Bytes.make 4096 'x' in
  Weak.set payload_weak 0 (Some payload);
  let r = Pool.run pool (fun i -> ignore (Sys.opaque_identity payload); i) 16 in
  Alcotest.(check int) "batch completed" 16 (Array.length r)

let test_pool_drops_completed_batch () =
  Pool.with_pool ~domains:2 (fun pool ->
      run_batch_with_payload pool;
      Gc.full_major ();
      Gc.full_major ();
      Alcotest.(check bool) "payload collected while pool is idle" true
        (Weak.get payload_weak 0 = None))

(* Small campaigns fall back to the serial path regardless of the
   requested job count — and the fallback is invisible in the report. *)
let test_fuzz_small_batch_serial_fallback () =
  Alcotest.(check int) "small campaign runs serially" 1
    (Simcheck.Fuzz.effective_jobs ~cases:4 ~variants:2 ~max_objects:40 8);
  Alcotest.(check bool) "large campaign keeps its jobs" true
    (Simcheck.Fuzz.effective_jobs ~cases:500 ~variants:2 ~max_objects:40 8 > 1);
  let campaign jobs =
    Simcheck.Fuzz.run ~jobs ~cases:4 ~seed:31 ~variants:fuzz_variants ()
  in
  let serial = campaign 1 and fallback = campaign 8 in
  Alcotest.(check bool) "campaign passes" true (Simcheck.Fuzz.ok fallback);
  Alcotest.(check string) "report identical through the fallback"
    (Simcheck.Fuzz.report_to_string serial)
    (Simcheck.Fuzz.report_to_string fallback)

(* Oversubscription must not slow a batch down: a pool asked for far
   more workers than the host has runs the same batch in comparable
   wall-clock (the pre-clamp engine was *slower* at higher --jobs).  The
   tolerance is deliberately loose — shared CI hosts jitter by tens of
   percent — but catches the multi-x blowup this PR fixed. *)
let cpu_task i =
  let acc = ref i in
  for k = 1 to 200_000 do
    acc := (!acc * 1103515245) + k
  done;
  !acc

let test_pool_oversubscription_tolerance () =
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let batch pool = ignore (Sys.opaque_identity (Pool.run pool cpu_task 64)) in
  (* Warm-up to take domain spawn out of both measurements. *)
  Pool.with_pool ~domains:1 (fun pool -> batch pool);
  let serial_s = Pool.with_pool ~domains:1 (fun pool -> time (fun () -> batch pool)) in
  let over_s =
    Pool.with_pool ~domains:(Pool.host_domains () * 8) (fun pool ->
        time (fun () -> batch pool))
  in
  let limit = (serial_s *. 3.0) +. 0.25 in
  if over_s > limit then
    Alcotest.failf
      "oversubscribed pool too slow: %.3fs vs %.3fs serial (limit %.3fs)"
      over_s serial_s limit

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "order and exactly-once" `Quick
            test_pool_order_and_exactly_once;
          Alcotest.test_case "empty and single batches" `Quick
            test_pool_empty_and_single;
          Alcotest.test_case "lowest-index failure reraised" `Quick
            test_pool_reraises_lowest_failure;
          Alcotest.test_case "pool reusable across batches" `Quick
            test_pool_reusable_across_batches;
          Alcotest.test_case "size clamps to host domains" `Quick
            test_pool_clamps_to_host;
          Alcotest.test_case "completed batch is dropped" `Quick
            test_pool_drops_completed_batch;
          Alcotest.test_case "small fuzz batch falls back to serial" `Quick
            test_fuzz_small_batch_serial_fallback;
          Alcotest.test_case "oversubscription within tolerance" `Slow
            test_pool_oversubscription_tolerance;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sweep byte-identical at jobs 1 vs 4" `Slow
            test_sweep_byte_identical_across_jobs;
          Alcotest.test_case "fuzz report identical at jobs 1 vs 4" `Slow
            test_fuzz_report_identical_across_jobs;
          Alcotest.test_case "fuzz tamper: same failure and shrink" `Slow
            test_fuzz_tamper_same_failure_across_jobs;
          Alcotest.test_case "crash report identical at jobs 1 vs 8" `Slow
            test_crash_report_identical_across_jobs;
        ] );
    ]
