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
    oracle collector ({!Verify.Hooks}).  The crash campaign is the same
    driver along a second axis: each run is additionally killed at
    injected crash points and the frozen image held to {!Recovery}.
    Failures shrink to a minimal (spec, threads, schedule, crash step)
    reproducer and print a replayable command line. *)

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

(* The two campaigns.  [Differential]: every variant collects the case
   and must reproduce the first variant's live graph; the optional heap
   tamper is {!run_variant}'s mutation-testing seam.  [Crash]: per
   variant, a probe counts the case's crash points, then the pause is
   killed at a drawn step and at the last one ([forced_step] replaces
   both with a single crash at that step); [tamper] arms a protocol
   mutation through the schedule seam. *)
type mode =
  | Differential of (string -> Spec.instance -> unit) option
  | Crash of { forced_step : int option; tamper : Sched.tamper option }

(* The schedule every crash run executes under.  The crash seam only
   exists on the scheduled engine, so seed 0 wraps the identity schedule
   rather than meaning "no schedule", and [tamper] arms a fresh one-shot
   mutation for this run.  Crash and tamper wrappers consume no PRNG, so
   the probe and every crashing run of a case see identical decision
   streams. *)
let crash_schedule tamper sched_seed =
  let base =
    if sched_seed = 0 then Nvmgc.Schedule.default else Sched.of_seed sched_seed
  in
  match tamper with None -> base | Some k -> Sched.with_tamper k base

(* What one execution needs besides its spec, reused per domain: a fresh
   memory allocates the whole default LLC (about 20k words straight into
   the major heap), a fresh heap its region table, a fresh collector its
   header map, engine, work stacks and thread records — all for a heap of
   a few dozen objects.  Each goes back into its slot returned to a state
   no query can tell from a fresh one ([Memory.reset], [Heap.reset],
   [Young_gc.reset]), so an idle pooled object keeps nothing of its last
   run alive: the objects of a run die young.  One memory and one
   collector serve every run (a reset collector takes the run's
   configuration); heaps are keyed by their geometry, structurally: a key
   is rebuilt for every run, so physical equality would never match.  A
   run takes its objects out of their slots and puts them back only when
   it returns normally, so a nested run or one that raised builds fresh
   ones, and two runs never share an object. *)
type 'a slot = 'a option ref

type pool = {
  memory : Memsim.Memory.t slot;
  collector : Nvmgc.Young_gc.t slot;
  heaps : (Simheap.Heap.config, Simheap.Heap.t slot) Hashtbl.t;
}

let pool_key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { memory = ref None; collector = ref None; heaps = Hashtbl.create 8 })

let keyed_slot tbl key =
  match Hashtbl.find_opt tbl key with
  | Some slot -> slot
  | None ->
      let slot = ref None in
      Hashtbl.add tbl key slot;
      slot

(* Empty [slot] and hand out what it held, or [None]. *)
let take slot =
  let held = !slot in
  slot := None;
  held

(* The one execution primitive: instantiate [spec] on a reset heap,
   collect once under [v] (verification hooks armed), pass the live
   instance and the pause to [finish], and map verifier, oracle and
   evacuation failures to messages.  With [crash_step], the pause is
   killed at that crash point with durability tracking armed, and the
   frozen heap + NVM image is held to the {!Recovery} obligations
   against the pre-pause graph, which [pre] caches across the runs of
   one spec (instantiation does not depend on the variant).
   [Ok None]: the crash was recoverable.  The pooled heap, memory and
   collector stay inside: [finish] is the last to see them, and the
   result must carry no reference to them. *)
let execute ?schedule ?crash_step ?(pre = ref None) ~spec ~threads ~finish
    (v : variant) =
  let pool = Domain.DLS.get pool_key in
  let heap_slot = keyed_slot pool.heaps (Spec.heap_config spec) in
  let inst = Spec.instantiate ?heap:(take heap_slot) spec in
  let memory =
    match take pool.memory with
    | Some m -> m
    | None -> Memsim.Memory.create Memsim.Memory.default_config
  in
  let schedule, pre =
    match crash_step with
    | None -> (schedule, None)
    | Some crash_step ->
        Memsim.Memory.set_durability_tracking memory true;
        if Option.is_none !pre then pre := Some (G.capture inst.Spec.heap);
        (Option.map (Sched.with_crash ~crash_step) schedule, !pre)
  in
  let heap = inst.Spec.heap in
  let config = v.make ~threads in
  let gc =
    match take pool.collector with
    | Some gc ->
        Nvmgc.Young_gc.reset ?schedule ~config gc ~heap ~memory;
        gc
    | None -> Nvmgc.Young_gc.create ?schedule ~heap ~memory config
  in
  let result =
    match Nvmgc.Young_gc.collect gc ~now_ns:0.0 with
    | pause -> Ok (Some (finish inst pause))
    | exception Nvmgc.Evacuation.Crashed st -> (
        match Recovery.check ~pre:(Option.get pre) ~heap ~memory st with
        | [] -> Ok None
        | msgs ->
            Error
              (Printf.sprintf "unrecoverable crash at step %d under %s:"
                 st.Nvmgc.Evacuation.crash_step v.name
              :: msgs))
    | exception Verify.Hooks.Verification_failure (desc, msgs) ->
        Error (Printf.sprintf "verification failure under %s" desc :: msgs)
    | exception Nvmgc.Evacuation.Evacuation_failure msg ->
        Error [ "evacuation failure: " ^ msg ]
  in
  Simheap.Heap.reset heap;
  Memsim.Memory.reset memory;
  Nvmgc.Young_gc.reset gc ~heap ~memory;
  pool.memory := Some memory;
  pool.collector := Some gc;
  heap_slot := Some heap;
  result

(* The differential campaign's schedule: seed 0 is the min-clock engine. *)
let differential_schedule sched_seed =
  if sched_seed = 0 then None else Some (Sched.of_seed sched_seed)

(* Mutation-testing seam: corrupt the post-pause heap of selected
   variants before the graph is read, so tests can inject a deterministic
   differential failure. *)
let apply_tamper tamper (v : variant) inst =
  match tamper with Some f -> f v.name inst | None -> ()

let run_variant ?tamper ~spec ~threads ~sched_seed (v : variant) =
  let finish inst pause =
    apply_tamper tamper v inst;
    (G.capture inst.Spec.heap, pause)
  in
  match
    execute ?schedule:(differential_schedule sched_seed) ~spec ~threads ~finish
      v
  with
  | Ok (Some r) -> Ok r
  | Ok None -> assert false (* no crash step, so no crash *)
  | Error msgs -> Error msgs

(* Run one case through every variant.  Returns the per-variant pauses
   for the summary (the crash campaign's are its probes') and the first
   failure: [(variant, crash step if a crash failed, messages)].  Crash
   steps come off a case-local stream derived from the heap seed, so
   they are a pure function of the case at any job count. *)
let run_case mode ~variants (case : case) =
  let { spec; threads; sched_seed; _ } = case in
  let failure = ref None and reference = ref None in
  let fail v step msgs =
    if Option.is_none !failure then failure := Some (v, step, msgs)
  in
  let crash_rng =
    lazy (Simstats.Prng.create (case.heap_seed lxor 0x6b43a9b1))
  in
  let pre = ref None in
  let crash_at tamper (v : variant) step =
    match
      execute ~schedule:(crash_schedule tamper sched_seed) ~crash_step:step
        ~pre ~spec ~threads ~finish:(fun _ _ -> ()) v
    with
    | Ok _ -> ()
    | Error msgs -> fail v (Some step) msgs
  in
  let pauses =
    List.map
      (fun (v : variant) ->
        match mode with
        | Differential tamper -> (
            (* The first variant's graph is the reference; every later
               one is compared against it in place, on its live heap. *)
            let finish inst pause =
              apply_tamper tamper v inst;
              let heap = inst.Spec.heap in
              match !reference with
              | None ->
                  reference := Some (v.name, G.capture heap);
                  (pause, [])
              | Some _ when Option.is_some !failure -> (pause, [])
              | Some (ref_name, ref_g) -> (
                  match G.diff_heap ~expected:ref_g heap with
                  | [] -> (pause, [])
                  | d ->
                      ( pause,
                        Printf.sprintf "live-graph mismatch against %s:"
                          ref_name
                        :: d ))
            in
            match
              execute
                ?schedule:(differential_schedule sched_seed)
                ~spec ~threads ~finish v
            with
            | Error msgs ->
                fail v None msgs;
                None
            | Ok None -> assert false (* no crash step, so no crash *)
            | Ok (Some (pause, mismatch)) ->
                if mismatch <> [] then fail v None mismatch;
                Some pause)
        | Crash { forced_step = Some step; tamper } ->
            crash_at tamper v step;
            None
        | Crash { forced_step = None; tamper } -> (
            (* The probe completes a full verified pause under a
               never-firing crash wrapper, so it doubles as the sanity
               run; then a drawn step, and the last crash point (right
               after the final flush is reported durable — the step that
               checks every durability report at once). *)
            let schedule, count =
              Sched.counting (crash_schedule tamper sched_seed)
            in
            match
              execute ~schedule ~spec ~threads
                ~finish:(fun _ pause -> pause)
                v
            with
            | Error msgs ->
                fail v None msgs;
                None
            | Ok probe ->
                let total = count () in
                if total > 0 then begin
                  let drawn =
                    1 + Simstats.Prng.int (Lazy.force crash_rng) total
                  in
                  List.iter (crash_at tamper v)
                    (if drawn = total then [ drawn ] else [ drawn; total ])
                end;
                probe))
      variants
  in
  (pauses, !failure)

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
  tamper : Sched.tamper option;
      (** the protocol mutation the failure was found (and shrunk)
          under; the replay line re-arms it *)
}

(* Run [f] with a private flight recorder installed and return its
   result with the ring dump.  Recording is pure observation, so [f]
   behaves exactly as it would unrecorded; the previous recorder is
   restored even if [f] raises. *)
let with_flight f =
  let saved = Nvmtrace.Hooks.recorder () in
  let recorder = Nvmtrace.Recorder.create () in
  Nvmtrace.Hooks.set_recorder (Some recorder);
  Fun.protect
    ~finally:(fun () -> Nvmtrace.Hooks.set_recorder saved)
    (fun () ->
      let r = f () in
      (r, Nvmtrace.Recorder.flight_dump recorder))

(* Shrink a failure: schedule -> 0, threads -> 1 (a reproducer that fails
   under the default engine with one thread is the most readable kind),
   then the crash step when the failure carries one (greedy halving
   toward 1, then unit decrements), then the spec.  Every phase accepts
   only still-failing candidates and later phases keep earlier results
   fixed; the crash wrapper fires at the first consultation >= the step,
   so a shrunk spec with fewer crash points either still crashes (and
   must still fail) or completes (and the candidate is rejected).  A
   crash failure re-runs only its variant at its step; a probe failure
   (the crash campaign's sanity run itself failed) is an ordinary
   verification failure and shrinks differentially, on its variant
   alone.  The shrunk reproducer is re-run once more under a private
   recorder for its messages and flight dump. *)
let shrink mode ~variants ~shrink_budget (case : case)
    ((v : variant), step, messages) =
  let budget = ref shrink_budget in
  let mode, variants =
    match (mode, step) with
    | Differential _, _ -> (mode, variants)
    | Crash _, Some _ -> (mode, [ v ])
    | Crash _, None -> (Differential None, [ v ])
  in
  let run c step =
    let mode =
      match mode with
      | Crash k -> Crash { k with forced_step = step }
      | Differential _ -> mode
    in
    snd (run_case mode ~variants c)
  in
  let attempt c step =
    !budget > 0
    && begin
         decr budget;
         Option.is_some (run c step)
       end
  in
  let prefer c' c = if attempt c' step then c' else c in
  let c =
    if case.sched_seed = 0 then case
    else prefer { case with sched_seed = 0 } case
  in
  let c = if c.threads = 1 then c else prefer { c with threads = 1 } c in
  let rec halve s =
    let cand = s / 2 in
    if cand >= 1 && attempt c (Some cand) then halve cand else s
  in
  let rec decrement s =
    if s > 1 && attempt c (Some (s - 1)) then decrement (s - 1) else s
  in
  let shrunk_step = Option.map (fun s -> decrement (halve s)) step in
  let c =
    {
      c with
      spec =
        Spec.shrink ~budget
          ~check:(fun spec -> Option.is_some (run { c with spec } shrunk_step))
          c.spec;
    }
  in
  let rerun, flight_dump = with_flight (fun () -> run c shrunk_step) in
  let shrunk_variant, shrunk_messages =
    match rerun with
    | Some ((v' : variant), _, m) -> (v'.name, m)
    | None -> (v.name, messages)
  in
  {
    case_index = case.index;
    heap_seed = case.heap_seed;
    sched_seed = case.sched_seed;
    threads = case.threads;
    variant = v.name;
    messages;
    shrunk_spec = c.spec;
    shrunk_threads = c.threads;
    shrunk_sched_seed = c.sched_seed;
    shrunk_variant;
    shrunk_messages;
    crash_step = step;
    shrunk_crash_step = shrunk_step;
    flight_dump;
    tamper = (match mode with Crash k -> k.tamper | Differential _ -> None);
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

(* Both seeds come off the master stream, drawn serially for every case
   before any case runs, so a campaign is a pure function of [seed] at
   any job count; roughly one case in ten runs the default min-clock
   engine instead of a random schedule. *)
let draw_seeds ~seed ~cases =
  let master = Simstats.Prng.create seed in
  Array.init cases (fun _ ->
      let heap_seed = Simstats.Prng.bits master in
      let sched_seed =
        if Simstats.Prng.int master 10 = 0 then 0 else Simstats.Prng.bits master
      in
      (heap_seed, sched_seed))

(* The one driver: run every (heap seed, schedule seed) pair as a case,
   one case per task, shrinking a failure inside its task on the domain
   that found it.  A replay is a campaign over one given pair. *)
let campaign mode ~jobs ~max_objects ~shrink_budget ~time_budget_s ~variants
    ~seed pairs =
  (* Process-global hook registration happens before any worker domain
     spawns (install-before-spawn). *)
  Verify.Hooks.ensure_installed ();
  let crash = match mode with Crash _ -> true | Differential _ -> false in
  let variants =
    select_variants
      (if crash && variants = [] then crash_variant_names else variants)
  in
  let cases = Array.length pairs in
  (* A crash case runs each variant up to three times (probe + two
     crashes), so weight the pool-vs-serial estimate accordingly. *)
  let jobs =
    effective_jobs ~cases
      ~variants:((if crash then 3 else 1) * List.length variants)
      ~max_objects jobs
  in
  let start = Sys.time () in
  (* The time budget is checked at task start, in CPU seconds of the
     whole process. *)
  let task index =
    if Sys.time () -. start > time_budget_s then None
    else
      let heap_seed, sched_seed = pairs.(index) in
      let case = derive_case ~index ~heap_seed ~sched_seed ~max_objects in
      let pauses, failure = run_case mode ~variants case in
      Some
        (pauses, Option.map (shrink mode ~variants ~shrink_budget case) failure)
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
    crash;
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

let run ?(jobs = 1) ?(max_objects = 40) ?(shrink_budget = 400)
    ?(time_budget_s = infinity) ?(variants = []) ?tamper ~cases ~seed () =
  campaign (Differential tamper) ~jobs ~max_objects ~shrink_budget
    ~time_budget_s ~variants ~seed (draw_seeds ~seed ~cases)

let replay ?(max_objects = 40) ?(shrink_budget = 400) ?(variants = []) ?tamper
    ~heap_seed ~sched_seed () =
  campaign (Differential tamper) ~jobs:1 ~max_objects ~shrink_budget
    ~time_budget_s:infinity ~variants ~seed:heap_seed
    [| (heap_seed, sched_seed) |]

let run_crash ?(jobs = 1) ?(max_objects = 40) ?(shrink_budget = 400)
    ?(time_budget_s = infinity) ?(variants = []) ?crash_step ?tamper ~cases
    ~seed () =
  campaign
    (Crash { forced_step = crash_step; tamper })
    ~jobs ~max_objects ~shrink_budget ~time_budget_s ~variants ~seed
    (draw_seeds ~seed ~cases)

let replay_crash ?(max_objects = 40) ?(shrink_budget = 400) ?(variants = [])
    ?crash_step ?tamper ~heap_seed ~sched_seed () =
  campaign
    (Crash { forced_step = crash_step; tamper })
    ~jobs:1 ~max_objects ~shrink_budget ~time_budget_s:infinity ~variants
    ~seed:heap_seed
    [| (heap_seed, sched_seed) |]

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
         --crash-step %d%s@]"
        f.heap_seed f.sched_seed step
        (match List.find_opt (fun (_, k) -> Some k = f.tamper) tampers with
        | Some (name, _) -> " --tamper " ^ name
        | None -> "")
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
