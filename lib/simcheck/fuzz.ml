(** The deterministic fuzz engine: seeded cases x schedule seeds x the
    full configuration matrix, with differential live-graph comparison
    and automatic shrinking of failures.

    A case is fully determined by two integers: [heap_seed] (thread count
    and heap-shape specification, via {!Spec.generate}) and [sched_seed]
    (the {!Sched} decision stream; 0 = the engine's own min-clock
    policy).  Every case runs once per configuration variant on a fresh
    heap; because instantiation assigns identical object ids, all
    variants must produce equal {!Verify.Graph} captures — and each run
    is additionally checked by the heap-invariant verifier and the
    oracle collector ({!Verify.Hooks}).  Failures shrink to a minimal
    (spec, threads, schedule) triple and print a replayable
    [--seed]/[--schedule] pair. *)

module G = Verify.Graph

(* ------------------------------------------------------------------ *)
(* The configuration matrix                                            *)

type variant = { name : string; make : threads:int -> Nvmgc.Gc_config.t }

(* Sizing scaled to the tiny fuzz heaps: a 64-entry header map and a
   two-region write-cache limit keep the Full-fallback and
   limit-exhaustion paths hot instead of unreachable. *)
let scale = 4096
let fuzz_header_map_bytes = 64 * Nvmgc.Gc_config.header_map_entry_bytes
let fuzz_write_cache_limit = 2 * Spec.region_bytes

let base ~threads =
  let open Nvmgc.Gc_config in
  { (vanilla ~threads ~scale ()) with verify = true }

let add_wc (c : Nvmgc.Gc_config.t) =
  {
    c with
    Nvmgc.Gc_config.write_cache = true;
    nt_flush = true;
    write_cache_limit_bytes = Some fuzz_write_cache_limit;
  }

let add_hm (c : Nvmgc.Gc_config.t) =
  {
    c with
    Nvmgc.Gc_config.header_map = true;
    header_map_bytes = fuzz_header_map_bytes;
    header_map_min_threads = 0;
    search_bound = 4;
  }

let add_async (c : Nvmgc.Gc_config.t) =
  { c with Nvmgc.Gc_config.flush_mode = Nvmgc.Gc_config.Async }

let add_prefetch (c : Nvmgc.Gc_config.t) =
  { c with Nvmgc.Gc_config.prefetch = true }

let to_ps (c : Nvmgc.Gc_config.t) =
  {
    c with
    Nvmgc.Gc_config.collector = Nvmgc.Gc_config.Parallel_scavenge;
    lab_bytes = 1024;
    direct_copy_threshold = 512;
  }

let all_variants =
  [
    { name = "g1-baseline"; make = (fun ~threads -> base ~threads) };
    { name = "g1-wc"; make = (fun ~threads -> add_wc (base ~threads)) };
    {
      name = "g1-wc-hm";
      make = (fun ~threads -> add_hm (add_wc (base ~threads)));
    };
    {
      name = "g1-wc-async";
      make = (fun ~threads -> add_async (add_wc (base ~threads)));
    };
    {
      name = "g1-all";
      make =
        (fun ~threads ->
          add_prefetch (add_async (add_hm (add_wc (base ~threads)))));
    };
    { name = "ps-baseline"; make = (fun ~threads -> to_ps (base ~threads)) };
    {
      name = "ps-all";
      make =
        (fun ~threads ->
          to_ps (add_prefetch (add_async (add_hm (add_wc (base ~threads))))));
    };
  ]

let variant_names = List.map (fun v -> v.name) all_variants

(* The crash campaign only exercises variants with the asynchronous
   flush pipeline: that is the machinery whose durability story the
   recovery oracle checks (synchronous variants flush everything inside
   the pause's write-only sub-phase and have no early-report window). *)
let crash_variant_names = [ "g1-wc-async"; "g1-all"; "ps-all" ]

(* CLI spelling of the one-shot protocol mutations the crash campaign
   can arm to mutation-test its own oracle. *)
let tampers =
  [ ("early-ready", Sched.Early_ready); ("drop-flush", Sched.Drop_flush) ]

let select_variants = function
  | [] -> all_variants
  | names ->
      let chosen = List.filter (fun v -> List.mem v.name names) all_variants in
      List.iter
        (fun n ->
          if not (List.exists (fun v -> v.name = n) all_variants) then
            invalid_arg
              (Printf.sprintf "Simcheck.Fuzz: unknown config variant %S" n))
        names;
      chosen

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)

type case = {
  index : int;
  heap_seed : int;
  sched_seed : int;
  threads : int;
  spec : Spec.t;
}

let derive_case ~index ~heap_seed ~sched_seed ~max_objects =
  let rng = Simstats.Prng.create heap_seed in
  let threads = 1 + Simstats.Prng.int rng 8 in
  let spec = Spec.generate rng ~max_objects in
  { index; heap_seed; sched_seed; threads; spec }

let run_variant ?tamper ~spec ~threads ~sched_seed (v : variant) =
  let inst = Spec.instantiate spec in
  let memory = Memsim.Memory.create Memsim.Memory.default_config in
  let config = v.make ~threads in
  let schedule =
    if sched_seed = 0 then None else Some (Sched.of_seed sched_seed)
  in
  let gc =
    Nvmgc.Young_gc.create ?schedule ~heap:inst.Spec.heap ~memory config
  in
  match Nvmgc.Young_gc.collect gc ~now_ns:0.0 with
  | pause ->
      (* Mutation-testing seam: corrupt the post-pause heap of selected
         variants before the graph capture, so tests can inject a
         deterministic differential failure. *)
      (match tamper with Some f -> f v.name inst | None -> ());
      Ok (G.capture inst.Spec.heap, pause)
  | exception Verify.Hooks.Verification_failure (desc, msgs) ->
      Error (Printf.sprintf "verification failure under %s" desc :: msgs)
  | exception Nvmgc.Evacuation.Evacuation_failure msg ->
      Error [ "evacuation failure: " ^ msg ]

(* Run one case through every variant; the first variant's live graph is
   the reference the others must reproduce. *)
let run_case ?tamper ~variants ~spec ~threads ~sched_seed () =
  let results =
    List.map
      (fun v -> (v, run_variant ?tamper ~spec ~threads ~sched_seed v))
      variants
  in
  let reference = ref None in
  let failure = ref None in
  List.iter
    (fun ((v : variant), r) ->
      if Option.is_none !failure then
        match r with
        | Error msgs -> failure := Some (v.name, msgs)
        | Ok (g, _) -> (
            match !reference with
            | None -> reference := Some (v.name, g)
            | Some (ref_name, ref_g) ->
                let d = G.diff ~expected:ref_g ~got:g in
                if d <> [] then
                  failure :=
                    Some
                      ( v.name,
                        Printf.sprintf "live-graph mismatch against %s:"
                          ref_name
                        :: d )))
    results;
  (results, !failure)

(* ------------------------------------------------------------------ *)
(* Failures and shrinking                                              *)

type failure = {
  case_index : int;
  heap_seed : int;
  sched_seed : int;
  threads : int;
  variant : string;
  messages : string list;
  shrunk_spec : Spec.t;
  shrunk_threads : int;
  shrunk_sched_seed : int;
  shrunk_variant : string;
  shrunk_messages : string list;
  crash_step : int option;
      (** [Some] = crash-campaign failure: the crash point whose
          injected power failure the recovery oracle rejected *)
  shrunk_crash_step : int option;
      (** minimized crash step valid against the shrunk reproducer *)
  flight_dump : string;
      (** the continuous recorder's flight-ring dump of the shrunk
          reproducer — the last milliseconds of memory-system history
          before the failure *)
}

(* Re-run a case with a private flight recorder installed and return the
   ring dump: the memory-system history that accompanies the shrunk
   reproducer.  Recording is pure observation, so the re-run fails
   identically; the private install is restored even if it raises. *)
let capture_flight ?tamper ~variants ~spec ~threads ~sched_seed () =
  let saved = Nvmtrace.Hooks.recorder () in
  let recorder = Nvmtrace.Recorder.create () in
  Nvmtrace.Hooks.set_recorder (Some recorder);
  Fun.protect
    ~finally:(fun () -> Nvmtrace.Hooks.set_recorder saved)
    (fun () ->
      ignore
        (run_case ?tamper ~variants ~spec ~threads ~sched_seed ()
          : ((variant * _) list) * _);
      Nvmtrace.Recorder.flight_dump recorder)

let shrink_failure ?tamper ~variants ~budget (case : case) (variant, messages)
    =
  let fails spec threads sched_seed =
    Option.is_some
      (snd (run_case ?tamper ~variants ~spec ~threads ~sched_seed ()))
  in
  let threads = ref case.threads and sched = ref case.sched_seed in
  (* Schedule and thread count first: a reproducer that fails under the
     default engine with one thread is the most readable kind. *)
  if !budget > 0 && !sched <> 0 then begin
    decr budget;
    if fails case.spec !threads 0 then sched := 0
  end;
  if !budget > 0 && !threads <> 1 then begin
    decr budget;
    if fails case.spec 1 !sched then threads := 1
  end;
  let shrunk_spec =
    Spec.shrink ~budget ~check:(fun s -> fails s !threads !sched) case.spec
  in
  let shrunk_variant, shrunk_messages =
    match
      snd (run_case ?tamper ~variants ~spec:shrunk_spec ~threads:!threads
             ~sched_seed:!sched ())
    with
    | Some (v, m) -> (v, m)
    | None -> (variant, messages)
  in
  let flight_dump =
    capture_flight ?tamper ~variants ~spec:shrunk_spec ~threads:!threads
      ~sched_seed:!sched ()
  in
  {
    case_index = case.index;
    heap_seed = case.heap_seed;
    sched_seed = case.sched_seed;
    threads = case.threads;
    variant;
    messages;
    shrunk_spec;
    shrunk_threads = !threads;
    shrunk_sched_seed = !sched;
    shrunk_variant;
    shrunk_messages;
    crash_step = None;
    shrunk_crash_step = None;
    flight_dump;
  }

(* ------------------------------------------------------------------ *)
(* Crash-consistency campaign: crash-point injection + recovery oracle *)

(* The schedule every crash run executes under: sched_seed 0 wraps the
   identity schedule (the crash seam only exists on the scheduled
   engine), any other seed wraps its {!Sched.of_seed} stream, and
   [tamper] arms a fresh one-shot protocol mutation for this run.  Crash
   and tamper wrappers consume no PRNG, so the probe and every crashing
   run of a case see identical decision streams. *)
let crash_base_schedule ?tamper sched_seed =
  let base =
    if sched_seed = 0 then Nvmgc.Schedule.default else Sched.of_seed sched_seed
  in
  match tamper with None -> base | Some k -> Sched.with_tamper k base

(* Probe run: count the case's crash points under a never-firing crash
   wrapper.  Completes a full verified pause, so it doubles as the
   campaign's sanity run and supplies the summary statistics. *)
let probe_crash_points ?tamper ~spec ~threads ~sched_seed (v : variant) =
  let inst = Spec.instantiate spec in
  let memory = Memsim.Memory.create Memsim.Memory.default_config in
  let config = v.make ~threads in
  let schedule, count =
    Sched.counting (crash_base_schedule ?tamper sched_seed)
  in
  let gc =
    Nvmgc.Young_gc.create ~schedule ~heap:inst.Spec.heap ~memory config
  in
  match Nvmgc.Young_gc.collect gc ~now_ns:0.0 with
  | pause -> Ok (pause, count ())
  | exception Verify.Hooks.Verification_failure (desc, msgs) ->
      Error (Printf.sprintf "verification failure under %s" desc :: msgs)
  | exception Nvmgc.Evacuation.Evacuation_failure msg ->
      Error [ "evacuation failure: " ^ msg ]

(* One crashing run: kill the pause at [crash_step], then hold the
   frozen heap + NVM image to the recovery obligations.  A run that
   completes without reaching the crash point trivially passes (the
   power never failed). *)
let run_crash_variant ?tamper ~spec ~threads ~sched_seed ~crash_step
    (v : variant) =
  let inst = Spec.instantiate spec in
  let memory = Memsim.Memory.create Memsim.Memory.default_config in
  Memsim.Memory.set_durability_tracking memory true;
  let config = v.make ~threads in
  let schedule =
    Sched.with_crash ~crash_step (crash_base_schedule ?tamper sched_seed)
  in
  let pre = G.capture inst.Spec.heap in
  let gc =
    Nvmgc.Young_gc.create ~schedule ~heap:inst.Spec.heap ~memory config
  in
  match Nvmgc.Young_gc.collect gc ~now_ns:0.0 with
  | (_ : Nvmgc.Gc_stats.pause) -> Ok ()
  | exception Nvmgc.Evacuation.Crashed st ->
      let msgs = Recovery.check ~pre ~heap:inst.Spec.heap ~memory st in
      if msgs = [] then Ok ()
      else
        Error
          (Printf.sprintf "unrecoverable crash at step %d under %s:"
             st.Nvmgc.Evacuation.crash_step v.name
          :: msgs)
  | exception Verify.Hooks.Verification_failure (desc, msgs) ->
      Error (Printf.sprintf "verification failure under %s" desc :: msgs)
  | exception Nvmgc.Evacuation.Evacuation_failure msg ->
      Error [ "evacuation failure: " ^ msg ]

(* Run one case through the crash matrix.  Per variant: the probe, then
   a crash at a step drawn from the case-local PRNG, then a crash at the
   last crash point (right after the final flush is reported durable —
   the step that checks every durability report at once).  [forced_step]
   (the CLI's [--crash-step]) replaces all of that with a single crash
   at the given step.  Returns per-variant probe pauses for the summary
   and the first failure: [(variant, crash_step option, messages)]. *)
let run_crash_case ?tamper ~variants ~spec ~threads ~sched_seed ~crash_rng
    ~forced_step () =
  let failure = ref None in
  let record_failure v step msgs =
    if Option.is_none !failure then failure := Some (v, step, msgs)
  in
  let pauses =
    List.map
      (fun (v : variant) ->
        match forced_step with
        | Some step -> begin
            (match
               run_crash_variant ?tamper ~spec ~threads ~sched_seed
                 ~crash_step:step v
             with
            | Ok () -> ()
            | Error msgs -> record_failure v (Some step) msgs);
            None
          end
        | None -> begin
            match probe_crash_points ?tamper ~spec ~threads ~sched_seed v with
            | Error msgs ->
                record_failure v None msgs;
                None
            | Ok (pause, total) ->
                if total > 0 then begin
                  let drawn = 1 + Simstats.Prng.int crash_rng total in
                  let steps =
                    if drawn = total then [ drawn ] else [ drawn; total ]
                  in
                  List.iter
                    (fun step ->
                      match
                        run_crash_variant ?tamper ~spec ~threads ~sched_seed
                          ~crash_step:step v
                      with
                      | Ok () -> ()
                      | Error msgs -> record_failure v (Some step) msgs)
                    steps
                end;
                Some pause
          end)
      variants
  in
  (pauses, !failure)

let capture_crash_flight ?tamper ~spec ~threads ~sched_seed ~crash_step v =
  let saved = Nvmtrace.Hooks.recorder () in
  let recorder = Nvmtrace.Recorder.create () in
  Nvmtrace.Hooks.set_recorder (Some recorder);
  Fun.protect
    ~finally:(fun () -> Nvmtrace.Hooks.set_recorder saved)
    (fun () ->
      ignore
        (run_crash_variant ?tamper ~spec ~threads ~sched_seed ~crash_step v
          : (unit, string list) result);
      Nvmtrace.Recorder.flight_dump recorder)

(* Shrink a crash failure: schedule -> threads -> crash step -> spec.
   The crash step minimizes by greedy halving toward 1 and then unit
   decrements, accepting only still-failing candidates; every later
   phase keeps the step fixed, and the crash wrapper fires at the first
   consultation >= the step, so a shrunk spec with fewer crash points
   either still crashes (and must still fail) or completes (and the
   candidate is rejected). *)
let shrink_crash_failure ~budget (case : case) ~variant_obj ~crash_step
    ?tamper (variant, messages) =
  let fails spec threads sched_seed step =
    match
      run_crash_variant ?tamper ~spec ~threads ~sched_seed ~crash_step:step
        variant_obj
    with
    | Error _ -> true
    | Ok () -> false
  in
  let threads = ref case.threads and sched = ref case.sched_seed in
  let step = ref crash_step in
  if !budget > 0 && !sched <> 0 then begin
    decr budget;
    if fails case.spec !threads 0 !step then sched := 0
  end;
  if !budget > 0 && !threads <> 1 then begin
    decr budget;
    if fails case.spec 1 !sched !step then threads := 1
  end;
  let halving = ref true in
  while !halving do
    let cand = !step / 2 in
    if cand >= 1 && !budget > 0 then begin
      decr budget;
      if fails case.spec !threads !sched cand then step := cand
      else halving := false
    end
    else halving := false
  done;
  let stepping = ref true in
  while !stepping && !step > 1 && !budget > 0 do
    decr budget;
    if fails case.spec !threads !sched (!step - 1) then step := !step - 1
    else stepping := false
  done;
  let shrunk_spec =
    Spec.shrink ~budget ~check:(fun s -> fails s !threads !sched !step) case.spec
  in
  let shrunk_messages =
    match
      run_crash_variant ?tamper ~spec:shrunk_spec ~threads:!threads
        ~sched_seed:!sched ~crash_step:!step variant_obj
    with
    | Error m -> m
    | Ok () -> messages
  in
  let flight_dump =
    capture_crash_flight ?tamper ~spec:shrunk_spec ~threads:!threads
      ~sched_seed:!sched ~crash_step:!step variant_obj
  in
  {
    case_index = case.index;
    heap_seed = case.heap_seed;
    sched_seed = case.sched_seed;
    threads = case.threads;
    variant;
    messages;
    shrunk_spec;
    shrunk_threads = !threads;
    shrunk_sched_seed = !sched;
    shrunk_variant = variant;
    shrunk_messages;
    crash_step = Some crash_step;
    shrunk_crash_step = Some !step;
    flight_dump;
  }

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)

type variant_summary = {
  variant : string;
  pauses : Nvmgc.Gc_stats.pause list;  (** one per passing case, in order *)
}

type report = {
  seed : int;
  cases_requested : int;
  cases_run : int;
  variants_run : string list;
  crash : bool;  (** this report came from the crash-consistency campaign *)
  summaries : variant_summary list;
  failures : failure list;
}

let ok report = report.failures = []

(* A fuzz case is sub-millisecond work (a single pause over a <=
   [max_objects]-object heap, once per variant), while dispatching a
   campaign through the pool costs domain spawns and joins — milliseconds
   on their own.  Estimate campaign size in object-pause units and keep
   small campaigns on the submitting domain; the report is rebuilt in
   case order either way, so the fallback is invisible in the output. *)
let serial_unit_threshold = 20_000

let effective_jobs ~cases ~variants ~max_objects jobs =
  let units = cases * variants * max_objects in
  if units < serial_unit_threshold then 1 else max 1 jobs

let run ?(jobs = 1) ?(max_objects = 40) ?(shrink_budget = 400)
    ?(time_budget_s = infinity) ?(variants = []) ?tamper ~cases ~seed () =
  (* Process-global hook registration happens before any worker domain
     spawns (install-before-spawn). *)
  Verify.Hooks.ensure_installed ();
  let variants = select_variants variants in
  if variants = [] then invalid_arg "Simcheck.Fuzz.run: empty variant list";
  let jobs =
    effective_jobs ~cases ~variants:(List.length variants) ~max_objects jobs
  in
  (* Both seeds come off the master stream, drawn serially for every case
     before any task runs — the exact draw order of the sequential
     engine, so a campaign is a pure function of [seed] at any job
     count; roughly one case in ten runs the default min-clock engine
     instead of a random schedule. *)
  let master = Simstats.Prng.create seed in
  let seeds = Array.make (max cases 0) (0, 0) in
  for i = 0 to cases - 1 do
    let heap_seed = Simstats.Prng.bits master in
    let sched_seed =
      if Simstats.Prng.int master 10 = 0 then 0 else Simstats.Prng.bits master
    in
    seeds.(i) <- (heap_seed, sched_seed)
  done;
  let start = Sys.time () in
  (* One case = one task; shrinking a failure stays inside the task, on
     the domain that found it.  The time budget is checked at task start
     (CPU seconds of the whole process, as in the sequential engine). *)
  let task index =
    if Sys.time () -. start > time_budget_s then None
    else begin
      let heap_seed, sched_seed = seeds.(index) in
      let (case : case) =
        derive_case ~index ~heap_seed ~sched_seed ~max_objects
      in
      let results, failure =
        run_case ?tamper ~variants ~spec:case.spec ~threads:case.threads
          ~sched_seed ()
      in
      let pauses =
        List.map
          (fun ((_ : variant), r) ->
            match r with Ok (_, pause) -> Some pause | Error _ -> None)
          results
      in
      let failure =
        Option.map
          (fun f ->
            let budget = ref shrink_budget in
            shrink_failure ?tamper ~variants ~budget case f)
          failure
      in
      Some (pauses, failure)
    end
  in
  let outcomes =
    if jobs = 1 then Array.init cases task
    else
      Exec.Pool.with_pool ~domains:jobs (fun pool ->
          Exec.Pool.run pool task cases)
  in
  (* Summaries and failures are rebuilt by case index, so the report is
     independent of completion order. *)
  let ran = Array.to_list outcomes |> List.filter_map Fun.id in
  {
    seed;
    cases_requested = cases;
    cases_run = List.length ran;
    variants_run = List.map (fun (v : variant) -> v.name) variants;
    crash = false;
    summaries =
      List.mapi
        (fun vi (v : variant) ->
          {
            variant = v.name;
            pauses = List.filter_map (fun (pauses, _) -> List.nth pauses vi) ran;
          })
        variants;
    failures = List.filter_map snd ran;
  }

let replay ?(max_objects = 40) ?(shrink_budget = 400) ?(variants = []) ?tamper
    ~heap_seed ~sched_seed () =
  Verify.Hooks.ensure_installed ();
  let variants = select_variants variants in
  if variants = [] then invalid_arg "Simcheck.Fuzz.replay: empty variant list";
  let (case : case) = derive_case ~index:0 ~heap_seed ~sched_seed ~max_objects in
  let results, failure =
    run_case ?tamper ~variants ~spec:case.spec ~threads:case.threads
      ~sched_seed ()
  in
  let failures =
    match failure with
    | None -> []
    | Some f ->
        let budget = ref shrink_budget in
        [ shrink_failure ?tamper ~variants ~budget case f ]
  in
  {
    seed = heap_seed;
    cases_requested = 1;
    cases_run = 1;
    variants_run = List.map (fun (v : variant) -> v.name) variants;
    crash = false;
    summaries =
      List.map
        (fun ((v : variant), r) ->
          {
            variant = v.name;
            pauses = (match r with Ok (_, p) -> [ p ] | Error _ -> []);
          })
        results;
    failures;
  }

(* ------------------------------------------------------------------ *)
(* The crash campaign driver                                           *)

(* Every crash failure shrinks through the crash path when it carries a
   step; a probe failure (the sanity run itself failed) shrinks through
   the ordinary differential machinery restricted to the one variant. *)
let shrink_crash_outcome ?tamper ~shrink_budget (case : case)
    ((v : variant), step, msgs) =
  let budget = ref shrink_budget in
  match step with
  | Some crash_step ->
      shrink_crash_failure ~budget case ~variant_obj:v ~crash_step ?tamper
        (v.name, msgs)
  | None -> shrink_failure ~variants:[ v ] ~budget case (v.name, msgs)

let run_crash ?(jobs = 1) ?(max_objects = 40) ?(shrink_budget = 400)
    ?(time_budget_s = infinity) ?(variants = []) ?crash_step ?tamper ~cases
    ~seed () =
  Verify.Hooks.ensure_installed ();
  let variants =
    select_variants (if variants = [] then crash_variant_names else variants)
  in
  if variants = [] then
    invalid_arg "Simcheck.Fuzz.run_crash: empty variant list";
  (* A crash case runs each variant up to three times (probe + two
     crashes), so weight the pool-vs-serial estimate accordingly. *)
  let jobs =
    effective_jobs ~cases ~variants:(3 * List.length variants) ~max_objects
      jobs
  in
  let master = Simstats.Prng.create seed in
  let seeds = Array.make (max cases 0) (0, 0) in
  for i = 0 to cases - 1 do
    let heap_seed = Simstats.Prng.bits master in
    let sched_seed =
      if Simstats.Prng.int master 10 = 0 then 0 else Simstats.Prng.bits master
    in
    seeds.(i) <- (heap_seed, sched_seed)
  done;
  let start = Sys.time () in
  let task index =
    if Sys.time () -. start > time_budget_s then None
    else begin
      let heap_seed, sched_seed = seeds.(index) in
      let (case : case) =
        derive_case ~index ~heap_seed ~sched_seed ~max_objects
      in
      (* Crash steps come off a case-local stream derived from the heap
         seed, so they are a pure function of the case at any job
         count. *)
      let crash_rng = Simstats.Prng.create (heap_seed lxor 0x6b43a9b1) in
      let pauses, failure =
        run_crash_case ?tamper ~variants ~spec:case.spec
          ~threads:case.threads ~sched_seed ~crash_rng
          ~forced_step:crash_step ()
      in
      let failure =
        Option.map (shrink_crash_outcome ?tamper ~shrink_budget case) failure
      in
      Some (pauses, failure)
    end
  in
  let outcomes =
    if jobs = 1 then Array.init cases task
    else
      Exec.Pool.with_pool ~domains:jobs (fun pool ->
          Exec.Pool.run pool task cases)
  in
  let ran = Array.to_list outcomes |> List.filter_map Fun.id in
  {
    seed;
    cases_requested = cases;
    cases_run = List.length ran;
    variants_run = List.map (fun (v : variant) -> v.name) variants;
    crash = true;
    summaries =
      List.mapi
        (fun vi (v : variant) ->
          {
            variant = v.name;
            pauses = List.filter_map (fun (pauses, _) -> List.nth pauses vi) ran;
          })
        variants;
    failures = List.filter_map snd ran;
  }

let replay_crash ?(max_objects = 40) ?(shrink_budget = 400) ?(variants = [])
    ?crash_step ?tamper ~heap_seed ~sched_seed () =
  Verify.Hooks.ensure_installed ();
  let variants =
    select_variants (if variants = [] then crash_variant_names else variants)
  in
  if variants = [] then
    invalid_arg "Simcheck.Fuzz.replay_crash: empty variant list";
  let (case : case) =
    derive_case ~index:0 ~heap_seed ~sched_seed ~max_objects
  in
  let crash_rng = Simstats.Prng.create (heap_seed lxor 0x6b43a9b1) in
  let pauses, failure =
    run_crash_case ?tamper ~variants ~spec:case.spec ~threads:case.threads
      ~sched_seed ~crash_rng ~forced_step:crash_step ()
  in
  let failures =
    match failure with
    | None -> []
    | Some f -> [ shrink_crash_outcome ?tamper ~shrink_budget case f ]
  in
  {
    seed = heap_seed;
    cases_requested = 1;
    cases_run = 1;
    variants_run = List.map (fun (v : variant) -> v.name) variants;
    crash = true;
    summaries =
      List.mapi
        (fun vi (v : variant) ->
          {
            variant = v.name;
            pauses = (match List.nth pauses vi with Some p -> [ p ] | None -> []);
          })
        variants;
    failures;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let pp_failure ppf f =
  (match f.crash_step with
  | Some step ->
      Format.fprintf ppf
        "@[<v>FAIL case %d: --seed %d --schedule %d --crash-step %d (threads \
         %d), variant %s@,"
        f.case_index f.heap_seed f.sched_seed step f.threads f.variant
  | None ->
      Format.fprintf ppf
        "@[<v>FAIL case %d: --seed %d --schedule %d (threads %d), variant %s@,"
        f.case_index f.heap_seed f.sched_seed f.threads f.variant);
  List.iter (fun m -> Format.fprintf ppf "  %s@," m) f.messages;
  (match f.shrunk_crash_step with
  | Some step ->
      Format.fprintf ppf
        "shrunk reproducer (%d objects, threads %d, schedule %d, crash step \
         %d, variant %s):@,"
        (Array.length f.shrunk_spec.Spec.objects)
        f.shrunk_threads f.shrunk_sched_seed step f.shrunk_variant
  | None ->
      Format.fprintf ppf
        "shrunk reproducer (%d objects, threads %d, schedule %d, variant %s):@,"
        (Array.length f.shrunk_spec.Spec.objects)
        f.shrunk_threads f.shrunk_sched_seed f.shrunk_variant);
  List.iter (fun m -> Format.fprintf ppf "  %s@," m) f.shrunk_messages;
  Format.fprintf ppf "%a@," Spec.pp f.shrunk_spec;
  String.split_on_char '\n' f.flight_dump
  |> List.iter (fun l -> if l <> "" then Format.fprintf ppf "%s@," l);
  match f.crash_step with
  | Some step ->
      Format.fprintf ppf
        "replay: nvmgc_cli fuzz --crash --cases 1 --seed %d --schedule %d \
         --crash-step %d@]"
        f.heap_seed f.sched_seed step
  | None ->
      Format.fprintf ppf
        "replay: nvmgc_cli fuzz --cases 1 --seed %d --schedule %d@]"
        f.heap_seed f.sched_seed

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s: %d/%d cases, seed %d, %d config variants@,"
    (if r.crash then "crash-fuzz" else "fuzz")
    r.cases_run r.cases_requested r.seed
    (List.length r.variants_run);
  List.iter
    (fun s ->
      let objects =
        List.fold_left
          (fun acc (p : Nvmgc.Gc_stats.pause) -> acc + p.objects_copied)
          0 s.pauses
      in
      let bytes =
        List.fold_left
          (fun acc (p : Nvmgc.Gc_stats.pause) -> acc + p.bytes_copied)
          0 s.pauses
      in
      let pause_ms =
        List.fold_left
          (fun acc (p : Nvmgc.Gc_stats.pause) -> acc +. p.pause_ns)
          0.0 s.pauses
        /. 1e6
      in
      Format.fprintf ppf
        "  %-12s %4d pauses, %6d objects, %8d bytes copied, %8.3f ms paused@,"
        s.variant (List.length s.pauses) objects bytes pause_ms)
    r.summaries;
  (match r.failures with
  | [] -> Format.fprintf ppf "  no failures@]"
  | fs ->
      Format.fprintf ppf "  %d FAILING case(s)@," (List.length fs);
      Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_failure ppf fs;
      Format.fprintf ppf "@]")

let report_to_string r = Format.asprintf "%a" pp_report r
let failure_to_string f = Format.asprintf "%a" pp_failure f

(* Never clobber an existing reproducer file: a nightly job retrying a
   flaky runner (or a user re-running a campaign in place) gets a fresh
   numerically-suffixed path instead of silently overwriting the
   artifact from the previous run. *)
let fresh_repro_path path =
  if not (Sys.file_exists path) then path
  else
    let rec go i =
      let cand = Printf.sprintf "%s.%d" path i in
      if Sys.file_exists cand then go (i + 1) else cand
    in
    go 1

let write_repro_file ~path r =
  let path = fresh_repro_path path in
  let oc = open_out path in
  List.iter
    (fun f ->
      output_string oc (failure_to_string f);
      output_char oc '\n')
    r.failures;
  close_out oc;
  path
