(** Shared experiment plumbing: scaling knobs, standard configurations, and
    the one-shot "run app X under configuration Y" helpers every
    figure/table harness builds on. *)

module P = Workloads.App_profile

(** Global knobs for experiment runs. *)
type options = {
  seed : int;
  threads : int;  (** default GC thread count (the paper pins one CPU:
                      28 physical cores) *)
  gc_scale : float;
      (** multiplier on the number of GCs per run; < 1 shortens runs *)
  verbose : bool;
      (** log per-pause and per-run summaries through the console sink
          (implies Info-level GC logging when [log_gc] is unset) *)
  verify : bool;
      (** run the heap-invariant verifier + oracle diff after every
          pause (pure observation; does not perturb results) *)
  trace_file : string option;
      (** write a Chrome-trace JSON (and a sibling [.jsonl] event
          stream) of every pause to this path *)
  metrics_file : string option;
      (** write the metrics-registry CSV dump to this path *)
  stats_file : string option;
      (** write the continuous recorder's per-window CSV here (plus a
          sibling [.prom] Prometheus-style exposition) *)
  stats_window_ms : float;
      (** recorder window width in simulated milliseconds *)
  log_gc : Logs.level option;
      (** GC console-log level ([--log-gc]); [None] defers to [verbose] *)
  jobs : int;
      (** worker domains for sweep/campaign parallelism ([--jobs]); 1 =
          sequential.  Serialized outputs are byte-identical at any
          value (see {!parallel_map}). *)
}

let default_options =
  {
    seed = 42;
    threads = 28;
    gc_scale = 1.0;
    verbose = false;
    verify = true;
    trace_file = None;
    metrics_file = None;
    stats_file = None;
    stats_window_ms = 1.0;
    log_gc = None;
    jobs = 1;
  }

(* ------------------------------------------------------------------ *)
(* Telemetry wiring.

   Tracing, metrics and console logging are ambient (registered in
   [Nvmtrace.Hooks]), exactly like the verifier: [with_telemetry] wraps
   a whole command — one run or a whole figure sweep — installs the
   sinks the options ask for, and serializes them on the way out.  All
   of it is pure observation; simulated results are byte-identical with
   telemetry on or off (see test/test_telemetry.ml). *)

let console_level options =
  match options.log_gc with
  | Some _ as l -> l
  | None -> if options.verbose then Some Logs.Info else None

(* The JSONL sibling of "trace.json" is "trace.jsonl"; of extension-less
   paths, "<path>.jsonl". *)
let jsonl_path trace_path =
  (try Filename.chop_extension trace_path with Invalid_argument _ -> trace_path)
  ^ ".jsonl"

(* The Prometheus sibling of "stats.csv" is "stats.prom". *)
let prom_path stats_path =
  (try Filename.chop_extension stats_path with Invalid_argument _ -> stats_path)
  ^ ".prom"

let recorder_window_ns options = options.stats_window_ms *. 1e6

let with_telemetry options f =
  let tracer =
    Option.map (fun _ -> Nvmtrace.Tracer.create ()) options.trace_file
  in
  let metrics =
    Option.map (fun _ -> Nvmtrace.Metrics.create ()) options.metrics_file
  in
  (* The recorder is always installed: the flight ring is the black box
     every verification/fuzz failure dumps, so it must already be
     running when the failure happens.  Bounded memory, pure
     observation; the windowed exports are only written out when
     [stats_file] asks for them. *)
  let recorder =
    Nvmtrace.Recorder.create ~window_ns:(recorder_window_ns options) ()
  in
  (match console_level options with
  | Some level -> Nvmtrace.Console.install ~level ()
  | None -> ());
  Nvmtrace.Hooks.set_tracer tracer;
  Nvmtrace.Hooks.set_metrics metrics;
  Nvmtrace.Hooks.set_recorder (Some recorder);
  let run () =
    try f ()
    with
    | (Verify.Hooks.Verification_failure _ | Nvmgc.Evacuation.Evacuation_failure _)
      as e ->
      (* The invariant just failed: ship the last few milliseconds of
         memory-system history with the report. *)
      prerr_string (Nvmtrace.Recorder.flight_dump recorder);
      prerr_newline ();
      raise e
  in
  Fun.protect
    ~finally:(fun () ->
      Nvmtrace.Hooks.set_tracer None;
      Nvmtrace.Hooks.set_metrics None;
      Nvmtrace.Hooks.set_recorder None;
      (match (options.trace_file, tracer) with
      | Some path, Some tracer ->
          (* Merge the recorder's per-window counter tracks into the
             trace before serializing, so Perfetto shows the bandwidth
             breakdown above the pause lanes. *)
          Nvmtrace.Recorder.add_counter_tracks recorder tracer;
          Out_channel.with_open_bin path (fun oc ->
              Nvmtrace.Sinks.write_chrome_trace oc tracer);
          Out_channel.with_open_bin (jsonl_path path) (fun oc ->
              Nvmtrace.Sinks.write_jsonl oc tracer)
      | _ -> ());
      (match options.stats_file with
      | Some path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (Nvmtrace.Recorder.to_csv recorder));
          Out_channel.with_open_bin (prom_path path) (fun oc ->
              Out_channel.output_string oc
                (Nvmtrace.Recorder.to_prometheus recorder))
      | None -> ());
      match (options.metrics_file, metrics) with
      | Some path, Some metrics ->
          Out_channel.with_open_bin path (fun oc ->
              Nvmtrace.Sinks.write_metrics_csv oc
                (Nvmtrace.Metrics.snapshot metrics))
      | _ -> ())
    run

(* A gc_scale small enough to round a profile's GC count to zero silently
   turns "scaled-down run" into "minimum-length run" — worth one warning
   per process, not one per cell of a sweep. *)
let warned_gc_clamp = Atomic.make false

let gcs_for options (profile : P.t) =
  let scaled =
    int_of_float
      (Float.round (float_of_int profile.P.gcs_per_run *. options.gc_scale))
  in
  if scaled < 1 && not (Atomic.exchange warned_gc_clamp true) then
    Printf.eprintf
      "nvmgc: warning: --gc-scale %g rounds %s's %d GCs to %d; clamping to 1 \
       GC per run (further clamps not reported)\n%!"
      options.gc_scale profile.P.name profile.P.gcs_per_run scaled;
  max 1 scaled

(* ------------------------------------------------------------------ *)
(* Deterministic parallel mapping.

   Each item becomes one task in a work-stealing domain pool
   ([Exec.Pool]); tasks must therefore be independent — each builds its
   own heap/memory/GC via [execute].  Telemetry stays deterministic
   because every task records into {e private} sinks (fresh tracer,
   fresh metrics registry, console capture buffer) installed on the
   worker domain for the duration of that task, and the private sinks
   are merged into the caller's ambient sinks in task {e submission}
   order after the pool joins.  [jobs = 1] takes the same
   capture-and-merge path, so serialized traces, metrics CSVs and
   console output are byte-identical at any [--jobs] value. *)

let parallel_map options ~f items =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let parent = Nvmtrace.Hooks.ambient () in
    let want_tracer = parent.Nvmtrace.Hooks.tracer <> None in
    let want_metrics = parent.Nvmtrace.Hooks.metrics <> None in
    let parent_recorder = parent.Nvmtrace.Hooks.recorder in
    let want_console = Nvmtrace.Console.installed () in
    (* Process-global registration must precede the spawn of any worker
       domain (see Verify.Hooks). *)
    if options.verify then Verify.Hooks.ensure_installed ();
    let task i =
      let tracer =
        if want_tracer then Some (Nvmtrace.Tracer.create ()) else None
      in
      let metrics =
        if want_metrics then Some (Nvmtrace.Metrics.create ()) else None
      in
      let recorder =
        Option.map
          (fun r ->
            Nvmtrace.Recorder.create
              ~window_ns:(Nvmtrace.Recorder.window_ns r) ())
          parent_recorder
      in
      let console = if want_console then Some (Buffer.create 256) else None in
      let saved_scope = Nvmtrace.Hooks.ambient () in
      let saved_capture = Nvmtrace.Console.capture () in
      Nvmtrace.Hooks.set_ambient { Nvmtrace.Hooks.tracer; metrics; recorder };
      Nvmtrace.Console.set_capture console;
      let value =
        Fun.protect
          ~finally:(fun () ->
            Nvmtrace.Hooks.set_ambient saved_scope;
            Nvmtrace.Console.set_capture saved_capture)
          (fun () -> f items.(i))
      in
      (value, tracer, metrics, recorder, console)
    in
    let results =
      Exec.Pool.with_pool ~domains:(max 1 options.jobs) (fun pool ->
          Exec.Pool.run pool task n)
    in
    Array.iter
      (fun (_, tracer, metrics, recorder, console) ->
        (match (parent.Nvmtrace.Hooks.tracer, tracer) with
        | Some into, Some src -> Nvmtrace.Tracer.append ~into src
        | _ -> ());
        (match (parent.Nvmtrace.Hooks.metrics, metrics) with
        | Some into, Some src -> Nvmtrace.Metrics.merge ~into src
        | _ -> ());
        (match (parent_recorder, recorder) with
        | Some into, Some src -> Nvmtrace.Recorder.merge ~into src
        | _ -> ());
        Option.iter Nvmtrace.Console.replay console)
      results;
    Array.to_list (Array.map (fun (v, _, _, _, _) -> v) results)
  end

(* The common sweep shape: every (app, setup) cell independently, then
   one row per app.  Cells are submitted app-major / setup-minor — the
   exact order the sequential nested loops used — so replayed console
   output and merged telemetry match the pre-parallel harnesses. *)
let parallel_cells options ~setups ~f apps =
  let cells =
    List.concat_map (fun app -> List.map (fun s -> (app, s)) setups) apps
  in
  let values = parallel_map options ~f:(fun (app, s) -> f app s) cells in
  let k = List.length setups in
  let rec take n xs =
    if n = 0 then ([], xs)
    else
      match xs with
      | x :: xs ->
          let row, rest = take (n - 1) xs in
          (x :: row, rest)
      | [] -> assert false
  in
  let rec group apps values =
    match apps with
    | [] ->
        assert (values = []);
        []
    | app :: apps ->
        let row, rest = take k values in
        (app, row) :: group apps rest
  in
  group apps values

(** The named configurations of Figures 5/13. *)
type setup =
  | Vanilla  (** unmodified G1, heap on NVM *)
  | Write_cache_only  (** "+writecache" *)
  | All_opts  (** "+all": write cache + header map + nt + prefetch *)
  | Vanilla_dram  (** unmodified G1, whole heap on DRAM *)
  | Young_gen_dram  (** unmodified G1, young gen on DRAM, rest on NVM *)
  | Young_dram_plus_opts
      (** the paper's stated future work (§5.2): DRAM for both allocation
          and GC — young gen on DRAM *and* the NVM-aware optimizations *)

let setup_name = function
  | Vanilla -> "vanilla"
  | Write_cache_only -> "+writecache"
  | All_opts -> "+all"
  | Vanilla_dram -> "vanilla-dram"
  | Young_gen_dram -> "young-gen-dram"
  | Young_dram_plus_opts -> "young-dram+all"

type run = {
  result : Workloads.Mutator.result;
  gc : Nvmgc.Young_gc.t;
  memory : Memsim.Memory.t;
}

(** Execute one application under a setup.  [threads] overrides the option
    default; [config_tweak] lets sweeps adjust sizes. *)
let execute ?threads ?gcs ?(trace = false) ?(llc_scale = 1.0) ?nvm ?dram
    ?(config_tweak = fun c -> c) options (profile : P.t) setup =
  let threads = Option.value threads ~default:options.threads in
  let gcs = Option.value gcs ~default:(gcs_for options profile) in
  let preset =
    match setup with
    | Vanilla | Vanilla_dram | Young_gen_dram -> `Vanilla
    | Write_cache_only -> `Write_cache
    | All_opts | Young_dram_plus_opts -> `All
  in
  let config =
    config_tweak (Workloads.Apps.gc_config profile ~preset ~threads)
  in
  if options.verify then Verify.Hooks.ensure_installed ();
  let config =
    { config with Nvmgc.Gc_config.verify = config.Nvmgc.Gc_config.verify
                                           && options.verify }
  in
  let config =
    match setup with
    | Young_dram_plus_opts ->
        (* With the young generation already on DRAM there is nothing for
           the write cache to stage; the header map still absorbs the
           forwarding installs of old-space-bound survivors. *)
        { config with Nvmgc.Gc_config.write_cache = false }
    | Vanilla | Write_cache_only | All_opts | Vanilla_dram | Young_gen_dram ->
        config
  in
  let heap_space, young_space =
    match setup with
    | Vanilla | Write_cache_only | All_opts -> (Memsim.Access.Nvm, None)
    | Vanilla_dram -> (Memsim.Access.Dram, None)
    | Young_gen_dram | Young_dram_plus_opts ->
        (Memsim.Access.Nvm, Some Memsim.Access.Dram)
  in
  let result, gc, memory, _heap =
    Workloads.Mutator.run_fresh ~heap_space ?young_space ~trace ~llc_scale
      ?nvm ?dram ~gcs ~profile ~seed:options.seed config
  in
  (* Feed the metrics registry and the console sink with the run-level
     view (Gc_stats.add already fed the per-pause view). *)
  Nvmtrace.Hooks.count ~by:1 "runner.runs";
  Nvmtrace.Hooks.observe "runner.gc_ns" result.Workloads.Mutator.gc_ns;
  Nvmtrace.Hooks.observe "runner.app_ns" result.Workloads.Mutator.app_ns;
  let totals = Nvmgc.Young_gc.totals gc in
  Logs.info ~src:Nvmtrace.Console.src (fun m ->
      m
        ~tags:(Nvmtrace.Console.tags ~now_ns:result.Workloads.Mutator.end_ns)
        "%s under %s: %d pauses, GC %.3fms of %.3fms; pause %a"
        profile.P.name (setup_name setup) totals.Nvmgc.Gc_stats.pauses
        (result.Workloads.Mutator.gc_ns /. 1e6)
        (result.Workloads.Mutator.end_ns /. 1e6)
        Nvmgc.Gc_stats.pp_percentiles totals);
  { result; gc; memory }

let gc_seconds run =
  Nvmgc.Gc_stats.total_pause_s (Nvmgc.Young_gc.totals run.gc)

let app_seconds run = run.result.Workloads.Mutator.app_ns /. 1e9

let total_seconds run = run.result.Workloads.Mutator.end_ns /. 1e9

let avg_nvm_bandwidth run =
  Nvmgc.Gc_stats.avg_nvm_bandwidth_mbps (Nvmgc.Young_gc.totals run.gc)
