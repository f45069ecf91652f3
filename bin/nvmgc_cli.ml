(* nvmgc: command-line driver for the NVM-aware GC simulator.

   Subcommands:
     list-apps          show the 26 application profiles
     list-experiments   show reproducible figures/tables
     fig <id>           regenerate one experiment (e.g. fig5, tab-prefetch)
     run <app>          run one application under a chosen configuration
     all                regenerate every experiment
     fuzz               deterministic simulation-testing campaign *)

open Cmdliner

(* Heap-verification and evacuation failures must be machine-visible: a
   clean error message and a non-zero exit, not an uncaught-exception
   backtrace — CI and the fuzzer driver key off the exit status. *)
let guarded f =
  match f () with
  | r -> r
  | exception Verify.Hooks.Verification_failure (desc, msgs) ->
      `Error
        ( false,
          Printf.sprintf "heap verification failed under %s:\n  %s" desc
            (String.concat "\n  " msgs) )
  | exception Nvmgc.Evacuation.Evacuation_failure msg ->
      `Error (false, "evacuation failure: " ^ msg)

(* Counts below 1 are usage errors (cmdliner's exit 124 with a message),
   not failures deep inside the simulator. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "must be at least 1, got %d" n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Format.pp_print_int)

let options_term =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let threads =
    Arg.(
      value & opt positive_int 28
      & info [ "threads"; "t" ] ~docv:"N" ~doc:"Default GC thread count.")
  in
  let gc_scale =
    Arg.(
      value & opt float 1.0
      & info [ "gc-scale" ] ~docv:"F"
          ~doc:"Multiplier on GCs per run (use <1 for quicker runs).")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:
            "Disable the post-pause heap-invariant verifier and oracle-GC \
             diff (enabled by default; pure observation, does not affect \
             simulated timings).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:
            "Log per-pause and per-run GC summaries to the console (same \
             as --log-gc info unless --log-gc is given).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome-trace JSON of every GC pause to $(docv) \
             (openable in Perfetto), plus a JSONL event stream next to it.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write the telemetry metrics registry as CSV to $(docv).")
  in
  let stats =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats" ] ~docv:"FILE"
          ~doc:
            "Write the continuous recorder's per-window time series \
             (bandwidth by cause, write amplification, gauges) as CSV to \
             $(docv), plus a Prometheus text exposition next to it.")
  in
  let stats_window =
    Arg.(
      value & opt float 1.0
      & info [ "stats-window" ] ~docv:"MS"
          ~doc:
            "Recorder window width in simulated milliseconds (default 1).  \
             Pure observation: simulated results are byte-identical at any \
             value.")
  in
  let log_level_conv =
    let parse s =
      match Nvmtrace.Console.level_of_string s with
      | Ok l -> Ok l
      | Error msg -> Error (`Msg msg)
    in
    Arg.conv (parse, Logs.pp_level)
  in
  let log_gc =
    Arg.(
      value
      & opt (some log_level_conv) None
      & info [ "log-gc" ] ~docv:"LEVEL"
          ~doc:
            "GC console-log level (error|warning|info|debug): JVM-unified- \
             logging-style [gc] / [gc,phases] lines on stdout.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Exec.Pool.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for sweep parallelism (default: the \
             recommended domain count).  Output is byte-identical at any \
             value.")
  in
  let make seed threads gc_scale no_verify verbose trace_file metrics_file
      stats_file stats_window_ms log_gc jobs =
    {
      Experiments.Runner.seed;
      threads;
      gc_scale;
      verbose;
      verify = not no_verify;
      trace_file;
      metrics_file;
      stats_file;
      stats_window_ms;
      log_gc;
      jobs = max 1 jobs;
    }
  in
  Term.(
    const make $ seed $ threads $ gc_scale $ no_verify $ verbose $ trace
    $ metrics $ stats $ stats_window $ log_gc $ jobs)

let list_apps_cmd =
  let doc = "List the 26 application profiles." in
  let run () =
    Printf.printf "%-18s %-12s %8s %8s %8s %8s\n" "name" "suite" "heap"
      "young" "survival" "gcs";
    List.iter
      (fun (p : Workloads.App_profile.t) ->
        Printf.printf "%-18s %-12s %6dKB %6dKB %8.3f %8d\n"
          p.Workloads.App_profile.name
          (Workloads.App_profile.suite_name p.Workloads.App_profile.suite)
          (p.Workloads.App_profile.heap_bytes / 1024)
          (p.Workloads.App_profile.young_bytes / 1024)
          p.Workloads.App_profile.survival_ratio
          p.Workloads.App_profile.gcs_per_run)
      Workloads.Apps.all
  in
  Cmd.v (Cmd.info "list-apps" ~doc) Term.(const run $ const ())

let list_experiments_cmd =
  let doc = "List reproducible figures and tables." in
  let run () =
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        Printf.printf "%-14s %s\n" e.Experiments.Registry.id
          e.Experiments.Registry.description)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list-experiments" ~doc) Term.(const run $ const ())

let fig_cmd =
  let doc = "Regenerate one experiment by id (see list-experiments)." in
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id, e.g. fig5 or tab-prefetch.")
  in
  let run options id =
    match Experiments.Registry.find id with
    | Some e ->
        guarded (fun () ->
            Experiments.Runner.with_telemetry options (fun () ->
                e.Experiments.Registry.run options);
            `Ok ())
    | None ->
        `Error
          ( false,
            Printf.sprintf "unknown experiment %S; known: %s" id
              (String.concat ", " (Experiments.Registry.ids ())) )
  in
  Cmd.v (Cmd.info "fig" ~doc) Term.(ret (const run $ options_term $ id))

let all_cmd =
  let doc = "Regenerate every experiment." in
  let run options =
    guarded (fun () ->
        Experiments.Runner.with_telemetry options (fun () ->
            List.iter
              (fun (e : Experiments.Registry.entry) ->
                Printf.printf "==== %s: %s ====\n%!" e.Experiments.Registry.id
                  e.Experiments.Registry.description;
                e.Experiments.Registry.run options)
              Experiments.Registry.all);
        `Ok ())
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(ret (const run $ options_term))

let setup_conv =
  let parse = function
    | "vanilla" -> Ok Experiments.Runner.Vanilla
    | "writecache" | "+writecache" -> Ok Experiments.Runner.Write_cache_only
    | "all" | "+all" -> Ok Experiments.Runner.All_opts
    | "dram" | "vanilla-dram" -> Ok Experiments.Runner.Vanilla_dram
    | "young-dram" | "young-gen-dram" -> Ok Experiments.Runner.Young_gen_dram
    | s -> Error (`Msg (Printf.sprintf "unknown configuration %S" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Experiments.Runner.setup_name s))

let run_cmd =
  let doc = "Run one application under a configuration and report GC stats." in
  let app_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"APP" ~doc:"Application name (see list-apps).")
  in
  let setup_arg =
    Arg.(
      value
      & opt setup_conv Experiments.Runner.All_opts
      & info [ "config"; "c" ] ~docv:"CONFIG"
          ~doc:"vanilla | writecache | all | dram | young-dram.")
  in
  let run options app setup =
    match
      List.find_opt
        (fun (p : Workloads.App_profile.t) -> p.Workloads.App_profile.name = app)
        Workloads.Apps.all
    with
    | None -> `Error (false, Printf.sprintf "unknown application %S" app)
    | Some profile ->
        guarded @@ fun () ->
        let r =
          Experiments.Runner.with_telemetry options (fun () ->
              Experiments.Runner.execute options profile setup)
        in
        let totals = Nvmgc.Young_gc.totals r.Experiments.Runner.gc in
        Printf.printf
          "%s under %s (%d threads):\n  pauses: %d\n  GC time: %.3f ms (max \
           pause %.3f ms)\n  pause percentiles: p50 %.3f ms, p95 %.3f ms, \
           p99 %.3f ms, p99.9 %.3f ms\n  app time: %.3f ms (GC share \
           %.1f%%)\n  copied: %d objects, %.2f MB\n  avg NVM bandwidth \
           during GC: %.0f MB/s\n"
          app
          (Experiments.Runner.setup_name setup)
          options.Experiments.Runner.threads totals.Nvmgc.Gc_stats.pauses
          (Experiments.Runner.gc_seconds r *. 1e3)
          (totals.Nvmgc.Gc_stats.max_pause_ns /. 1e6)
          (Nvmgc.Gc_stats.p50_pause_ns totals /. 1e6)
          (Nvmgc.Gc_stats.p95_pause_ns totals /. 1e6)
          (Nvmgc.Gc_stats.p99_pause_ns totals /. 1e6)
          (Nvmgc.Gc_stats.p99_9_pause_ns totals /. 1e6)
          (Experiments.Runner.app_seconds r *. 1e3)
          (100.
          *. Workloads.Mutator.gc_share r.Experiments.Runner.result)
          totals.Nvmgc.Gc_stats.objects_copied
          (float_of_int totals.Nvmgc.Gc_stats.bytes_copied /. 1e6)
          (Experiments.Runner.avg_nvm_bandwidth r);
        `Ok ()
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret (const run $ options_term $ app_arg $ setup_arg))

let fuzz_cmd =
  let doc =
    "Run the deterministic simulation-testing fuzzer: seeded heap shapes \
     and GC-thread schedules through every configuration variant, with \
     differential live-graph comparison and the heap verifier/oracle \
     armed.  Failures are shrunk to a minimal reproducer and exit \
     non-zero with a replayable --seed/--schedule pair."
  in
  let cases =
    Arg.(
      value & opt int 100
      & info [ "cases"; "n" ] ~docv:"N" ~doc:"Number of fuzz cases.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign seed; with --schedule, the heap seed of the single \
             case to replay.")
  in
  let schedule =
    Arg.(
      value
      & opt (some int) None
      & info [ "schedule" ] ~docv:"SEED"
          ~doc:
            "Replay exactly one case: --seed is its heap seed and $(docv) \
             its schedule seed (0 = the engine's min-clock policy).")
  in
  let configs =
    Arg.(
      value
      & opt (list string) []
      & info [ "configs" ] ~docv:"NAMES"
          ~doc:
            (Printf.sprintf
               "Comma-separated config-variant subset (default: all of %s)."
               (String.concat ", " Simcheck.Fuzz.variant_names)))
  in
  let max_objects =
    Arg.(
      value & opt positive_int 40
      & info [ "max-objects" ] ~docv:"N"
          ~doc:"Upper bound on objects per generated heap.")
  in
  let time_budget =
    Arg.(
      value & opt float 0.0
      & info [ "time-budget" ] ~docv:"SECONDS"
          ~doc:"Stop the campaign after this much CPU time (0 = no limit).")
  in
  let shrink_budget =
    Arg.(
      value & opt int 400
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Max re-executions per failure while shrinking.")
  in
  let repro_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-file" ] ~docv:"FILE"
          ~doc:
            "On failure, write the shrunk reproducers (replay command + \
             minimal heap spec) to $(docv) — uploaded as a CI artifact.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Exec.Pool.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains running fuzz cases (default: the recommended \
             domain count).  The report is identical at any value.")
  in
  let crash =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Run the crash-consistency campaign instead of the differential \
             one: each case is killed at injected crash points \
             mid-evacuation and the frozen NVM image is held to the \
             recovery oracle (durable-flush byte-integrity, no forwarding \
             leakage, closed surviving subgraph).")
  in
  let crash_step =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-step" ] ~docv:"STEP"
          ~doc:
            "With --crash: kill every run at exactly this crash point \
             instead of campaign-drawn ones — the replay path for printed \
             reproducers.")
  in
  let tamper =
    Arg.(
      value
      & opt (some (enum Simcheck.Fuzz.tampers)) None
      & info [ "tamper" ] ~docv:"KIND"
          ~doc:
            "With --crash: arm a one-shot protocol mutation \
             ($(b,early-ready) reports a write-cache pair flushable before \
             the protocol says so; $(b,drop-flush) reports a flush durable \
             without writing the bytes) to mutation-test the recovery \
             oracle.  The campaign is then expected to fail.")
  in
  let run cases seed schedule configs max_objects time_budget shrink_budget
      repro_file jobs crash crash_step tamper =
    guarded @@ fun () ->
    if (crash_step <> None || tamper <> None) && not crash then
      `Error (false, "--crash-step and --tamper require --crash")
    else
      let time_budget_s =
        if time_budget <= 0.0 then infinity else time_budget
      in
      match
        match (crash, schedule) with
        | false, Some sched_seed ->
            Simcheck.Fuzz.replay ~max_objects ~shrink_budget ~variants:configs
              ~heap_seed:seed ~sched_seed ()
        | false, None ->
            Simcheck.Fuzz.run ~jobs:(max 1 jobs) ~max_objects ~shrink_budget
              ~time_budget_s ~variants:configs ~cases ~seed ()
        | true, Some sched_seed ->
            Simcheck.Fuzz.replay_crash ~max_objects ~shrink_budget
              ~variants:configs ?crash_step ?tamper ~heap_seed:seed
              ~sched_seed ()
        | true, None ->
            Simcheck.Fuzz.run_crash ~jobs:(max 1 jobs) ~max_objects
              ~shrink_budget ~time_budget_s ~variants:configs ?crash_step
              ?tamper ~cases ~seed ()
      with
      | report ->
          print_endline (Simcheck.Fuzz.report_to_string report);
          if Simcheck.Fuzz.ok report then `Ok ()
          else begin
            (match repro_file with
            | None -> ()
            | Some path ->
                let written =
                  Simcheck.Fuzz.write_repro_file ~path report
                in
                Printf.eprintf "reproducers written to %s\n%!" written);
            `Error
              ( false,
                Printf.sprintf "%d fuzz case(s) failed"
                  (List.length report.Simcheck.Fuzz.failures) )
          end
      | exception Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      ret
        (const run $ cases $ seed $ schedule $ configs $ max_objects
       $ time_budget $ shrink_budget $ repro_file $ jobs $ crash $ crash_step
       $ tamper))

let stats_cmd =
  let doc =
    "Run one application with the continuous recorder installed and print \
     its per-window time series (NVM/DRAM bandwidth split by cause, write \
     amplification, write-cache and heap gauges) as CSV on stdout."
  in
  let app_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"APP" ~doc:"Application name (see list-apps).")
  in
  let setup_arg =
    Arg.(
      value
      & opt setup_conv Experiments.Runner.All_opts
      & info [ "config"; "c" ] ~docv:"CONFIG"
          ~doc:"vanilla | writecache | all | dram | young-dram.")
  in
  let window_arg =
    Arg.(
      value & opt (some float) None
      & info [ "window" ] ~docv:"MS"
          ~doc:
            "Recorder window width in simulated milliseconds (overrides \
             --stats-window; default 1).")
  in
  let series_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "series" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated substrings selecting which CSV columns to \
             print (e.g. nvm_write, track:, wc_hit); default: all.")
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let filter_csv csv series =
    if series = [] then csv
    else
      match String.split_on_char '\n' csv with
      | [] -> csv
      | header :: rows ->
          let keep =
            List.mapi
              (fun i name ->
                i = 0 || List.exists (fun s -> contains name s) series)
              (String.split_on_char ',' header)
          in
          let project line =
            String.split_on_char ',' line
            |> List.filteri (fun i _ ->
                   match List.nth_opt keep i with Some k -> k | None -> false)
            |> String.concat ","
          in
          (header :: rows)
          |> List.filter_map (fun line ->
                 if line = "" then None else Some (project line))
          |> String.concat "\n"
  in
  let run options app setup window series =
    match
      List.find_opt
        (fun (p : Workloads.App_profile.t) -> p.Workloads.App_profile.name = app)
        Workloads.Apps.all
    with
    | None -> `Error (false, Printf.sprintf "unknown application %S" app)
    | Some profile ->
        guarded @@ fun () ->
        let options =
          match window with
          | Some ms when ms > 0.0 ->
              { options with Experiments.Runner.stats_window_ms = ms }
          | Some ms ->
              invalid_arg (Printf.sprintf "--window must be positive: %g" ms)
          | None -> options
        in
        let recorder =
          Nvmtrace.Recorder.create
            ~window_ns:(Experiments.Runner.recorder_window_ns options)
            ()
        in
        let saved = Nvmtrace.Hooks.recorder () in
        Nvmtrace.Hooks.set_recorder (Some recorder);
        Fun.protect
          ~finally:(fun () -> Nvmtrace.Hooks.set_recorder saved)
          (fun () ->
            ignore
              (Experiments.Runner.execute options profile setup
                : Experiments.Runner.run));
        print_string (filter_csv (Nvmtrace.Recorder.to_csv recorder) series);
        `Ok ()
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      ret
        (const run $ options_term $ app_arg $ setup_arg $ window_arg
       $ series_arg))

let validate_trace_cmd =
  let doc =
    "Validate a Chrome-trace file produced by --trace (parses the JSON, \
     checks event shape and that at least one pause span is present).  \
     When the sibling .jsonl event stream exists it is validated too and \
     cross-checked against the Chrome trace: event counts and first/last \
     timestamps must agree exactly."
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace file to validate.")
  in
  let jsonl_sibling path =
    (try Filename.chop_extension path with Invalid_argument _ -> path)
    ^ ".jsonl"
  in
  let run file =
    match Nvmtrace.Sinks.validate_trace_file file with
    | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
    | Ok s -> (
        Printf.printf
          "%s: valid Chrome trace (%d events: %d spans of which %d pauses, \
           %d instants, %d counters, %d lanes)\n"
          file s.Nvmtrace.Sinks.total_events s.Nvmtrace.Sinks.span_events
          s.Nvmtrace.Sinks.pause_spans s.Nvmtrace.Sinks.instant_events
          s.Nvmtrace.Sinks.counter_events s.Nvmtrace.Sinks.lanes;
        let jsonl = jsonl_sibling file in
        if not (Sys.file_exists jsonl) then begin
          Printf.printf "%s: no JSONL sibling, skipping cross-check\n" jsonl;
          `Ok ()
        end
        else
          match Nvmtrace.Sinks.validate_jsonl_file jsonl with
          | Error msg -> `Error (false, Printf.sprintf "%s: %s" jsonl msg)
          | Ok j -> (
              match Nvmtrace.Sinks.cross_check s j with
              | Ok () ->
                  Printf.printf
                    "%s: valid JSONL stream, consistent with the Chrome \
                     trace (%d events)\n"
                    jsonl j.Nvmtrace.Sinks.total_events;
                  `Ok ()
              | Error msg -> `Error (false, Printf.sprintf "%s: %s" jsonl msg)
              ))
  in
  Cmd.v (Cmd.info "validate-trace" ~doc) Term.(ret (const run $ file))

let () =
  let doc = "NVM-aware copy-based garbage collection simulator (EuroSys'21 reproduction)" in
  let info = Cmd.info "nvmgc" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        list_apps_cmd; list_experiments_cmd; fig_cmd; run_cmd; all_cmd;
        fuzz_cmd; stats_cmd; validate_trace_cmd;
      ]
  in
  exit (Cmd.eval group)
