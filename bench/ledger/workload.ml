(* The ledger's four workloads, and one round of each: plain (the user's
   own entry points, timed per operation) or traced (spans around every
   layer call, for the per-layer metrics).  README.md says why each
   workload is there. *)

module R = Experiments.Runner

type sweep = {
  apps : Workloads.App_profile.t list;
  gc_scale : float;
  verify : bool;  (** verification on, inside [Runner.with_telemetry] *)
}

type kind = Sweep of sweep | Fuzz

type t = {
  name : string;
  kind : kind;
  pinned : (int * string) list;  (** (seed, round digest) *)
}

let fig5_apps = Sweep.apps [ "page-rank"; "als"; "movie-lens"; "kmeans" ]
let fig5_digest = "795e26baabeb6416f54b2d1e8037f9df"

let all =
  [
    {
      name = "sweep-fig5";
      kind = Sweep { apps = fig5_apps; gc_scale = 0.25; verify = false };
      pinned = [ (42, fig5_digest) ];
    };
    {
      name = "sweep-arrays";
      kind =
        Sweep
          {
            apps =
              Sweep.apps
                [ "naive-bayes"; "chi-square"; "gauss-mix"; "log-regression" ];
            gc_scale = 8.0;
            verify = false;
          };
      pinned = [ (42, "0d616157f79f7c61eb97b14b7366c0e6") ];
    };
    {
      name = "verified-fig5";
      kind = Sweep { apps = fig5_apps; gc_scale = 0.25; verify = true };
      pinned = [ (42, fig5_digest) ];
    };
    {
      name = "fuzz-campaign";
      kind = Fuzz;
      pinned = [ (42, "1204af41a214cfa277d8020a78f4f88d") ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all

let options sw ~seed =
  { R.default_options with seed; gc_scale = sw.gc_scale; jobs = 1; verify = sw.verify }

(* A fuzz-campaign round: 800 differential cases, then 300 crash cases,
   as 25-case campaigns (the size of the repo's fuzz and crash smokes),
   each campaign one operation.  Campaign seeds are drawn from the
   workload seed. *)
let campaign_cases = 25
let fuzz_campaigns = 32
let crash_campaigns = 12

let campaigns ~seed =
  let rng = Simstats.Prng.create seed in
  List.init (fuzz_campaigns + crash_campaigns) (fun i ->
      let seed = Simstats.Prng.bits rng in
      if i < fuzz_campaigns then fun () ->
        Simcheck.Fuzz.run ~cases:campaign_cases ~seed ()
      else fun () -> Simcheck.Fuzz.run_crash ~cases:campaign_cases ~seed ())

let ops_per_round t =
  match t.kind with
  | Sweep sw -> List.length (Sweep.cells sw.apps)
  | Fuzz -> fuzz_campaigns + crash_campaigns

(** The untimed unit a child runs before its timed region: the
    workload's first cell, or a 20-case campaign at [seed + 1]. *)
let warm_up t ~seed =
  match t.kind with
  | Sweep sw -> (
      match Sweep.cells sw.apps with
      | (app, setup) :: _ -> ignore (R.execute (options sw ~seed) app setup : R.run)
      | [] -> ())
  | Fuzz -> ignore (Simcheck.Fuzz.run ~cases:20 ~seed:(seed + 1) () : Simcheck.Fuzz.report)

(* ------------------------------------------------------------------ *)
(* Rounds *)

type op = {
  cpu_s : float;  (** user CPU of the operation *)
  wall_s : float;
  attempted : int;  (** 1 per cell; cases per campaign *)
  failed : int;
  objects : int;  (** simulated objects copied *)
  sim_gc_s : float;  (** simulated pause seconds *)
  digest : string;  (** fingerprint of the simulated result *)
}

type round = {
  ops : op list;
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  digest : string;
      (** sweeps: MD5 of the Figure 5 rows; fuzz: MD5 over the op digests *)
}

(* The failures a cell reports as failed operations; anything else is a
   bug in the bench and ends the child. *)
let is_failure = function
  | Verify.Hooks.Verification_failure _ | Nvmgc.Evacuation.Evacuation_failure _ -> true
  | _ -> false

(* Run [f] for one operation, timing its user CPU and wall time. *)
let timed f =
  let acc = Nvmtrace.Throughput.create () in
  let r =
    Nvmtrace.Throughput.timed acc (fun () ->
        match f () with v -> Ok v | exception e when is_failure e -> Error e)
  in
  (r, acc)

let failed_op (time : Nvmtrace.Throughput.t) =
  {
    cpu_s = time.cpu_s;
    wall_s = time.wall_s;
    attempted = 1;
    failed = 1;
    objects = 0;
    sim_gc_s = nan;
    digest = "failed";
  }

let cell_op (time : Nvmtrace.Throughput.t) ~objects ~sim_gc_s pauses =
  {
    cpu_s = time.cpu_s;
    wall_s = time.wall_s;
    attempted = 1;
    failed = 0;
    objects;
    sim_gc_s;
    digest = Sweep.value_digest (pauses : Nvmgc.Gc_stats.pause list);
  }

let campaign_op (time : Nvmtrace.Throughput.t) (r : Simcheck.Fuzz.report) =
  let pauses =
    List.concat_map (fun (s : Simcheck.Fuzz.variant_summary) -> s.pauses) r.summaries
  in
  let sum f = List.fold_left (fun a p -> a + f p) 0 pauses in
  let sumf f = List.fold_left (fun a p -> a +. f p) 0.0 pauses in
  {
    cpu_s = time.cpu_s;
    wall_s = time.wall_s;
    attempted = r.cases_requested;
    failed = List.length r.failures + (r.cases_requested - r.cases_run);
    objects = sum (fun p -> p.Nvmgc.Gc_stats.objects_copied);
    sim_gc_s = sumf (fun p -> p.Nvmgc.Gc_stats.pause_ns) /. 1e9;
    digest = Sweep.value_digest r;
  }

let round_digest t ops =
  match t.kind with
  | Sweep sw ->
      if List.exists (fun (o : op) -> o.failed > 0) ops then "failed"
      else Sweep.rows_digest sw.apps (List.map (fun (o : op) -> o.sim_gc_s) ops)
  | Fuzz ->
      Digest.to_hex
        (Digest.string (String.concat "" (List.map (fun (o : op) -> o.digest) ops)))

(* Memory-system counters summed over a traced sweep's cells. *)
type memsim = {
  mutable llc_hits : int;
  mutable llc_misses : int;
  mutable llc_writebacks : int;
  mutable nvm_service_ns : float;
  mutable nvm_wait_ns : float;
  mutable live_objects : int;
}

type tracer = { spans : Span.t; pauses : Probe.pauses; memsim : memsim }

let add_cell tr (c : Sweep.traced) =
  let llc = Memsim.Memory.llc c.memory in
  let m = tr.memsim in
  m.llc_hits <- m.llc_hits + Memsim.Llc.hits llc + Memsim.Llc.prefetch_hits llc;
  m.llc_misses <- m.llc_misses + Memsim.Llc.misses llc;
  m.llc_writebacks <- m.llc_writebacks + Memsim.Llc.writebacks llc;
  let service, wait = Memsim.Memory.pipe_stats c.memory Memsim.Access.Nvm in
  m.nvm_service_ns <- m.nvm_service_ns +. service;
  m.nvm_wait_ns <- m.nvm_wait_ns +. wait;
  m.live_objects <- m.live_objects + c.live_objects;
  let threads = (Nvmgc.Young_gc.config c.gc).Nvmgc.Gc_config.threads in
  List.iter (Probe.add_pause tr.pauses ~threads) c.pauses

let sweep_ops ?tracer sw ~seed =
  let options = options sw ~seed in
  let cell i (app, setup) =
    match tracer with
    | None -> (
        match timed (fun () -> R.execute options app setup) with
        | Ok run, time ->
            cell_op time
              ~objects:(Nvmgc.Young_gc.totals run.R.gc).Nvmgc.Gc_stats.objects_copied
              ~sim_gc_s:(R.gc_seconds run)
              (List.map (fun r -> r.Workloads.Mutator.pause) run.R.result.Workloads.Mutator.pauses)
        | Error _, time -> failed_op time)
    | Some tr ->
        Span.record tr.spans ~kind:Span.Group ~id:i "cell" (fun () ->
            match timed (fun () -> Sweep.run_traced tr.spans options app setup) with
            | Ok c, time ->
                add_cell tr c;
                let totals = Nvmgc.Young_gc.totals c.Sweep.gc in
                cell_op time ~objects:totals.Nvmgc.Gc_stats.objects_copied
                  ~sim_gc_s:(Nvmgc.Gc_stats.total_pause_s totals)
                  c.Sweep.pauses
            | Error _, time -> failed_op time)
  in
  let run () = List.mapi cell (Sweep.cells sw.apps) in
  if sw.verify then R.with_telemetry options run else run ()

let fuzz_ops ?tracer ~seed () =
  List.mapi
    (fun i campaign ->
      let campaign =
        match tracer with
        | None -> campaign
        | Some tr -> fun () -> Span.record tr.spans ~id:i "simcheck.campaign" campaign
      in
      match timed campaign with
      | Ok r, time -> campaign_op time r
      | Error _, time -> failed_op time)
    (campaigns ~seed)

(** One round: every operation of the workload, timed one by one. *)
let run_round ?tracer t ~seed =
  let acc = Nvmtrace.Throughput.create () in
  let minor0 = Gc.minor_words () in
  let ops =
    Nvmtrace.Throughput.timed acc (fun () ->
        match t.kind with
        | Sweep sw -> sweep_ops ?tracer sw ~seed
        | Fuzz -> fuzz_ops ?tracer ~seed ())
  in
  {
    ops;
    wall_s = acc.Nvmtrace.Throughput.wall_s;
    cpu_s = acc.Nvmtrace.Throughput.cpu_s;
    minor_words = Gc.minor_words () -. minor0;
    digest = round_digest t ops;
  }

(* ------------------------------------------------------------------ *)
(* The traced round *)

let traced_round t ~seed =
  let tr =
    {
      spans = Span.create ();
      pauses = Probe.pauses ();
      memsim =
        {
          llc_hits = 0;
          llc_misses = 0;
          llc_writebacks = 0;
          nvm_service_ns = 0.0;
          nvm_wait_ns = 0.0;
          live_objects = 0;
        };
    }
  in
  (match t.kind with
  | Sweep _ -> Probe.install_verify_hooks ~spans:tr.spans ()
  | Fuzz -> Probe.install_verify_hooks ~collects:tr.pauses ~spans:tr.spans ());
  let round =
    Span.record tr.spans ~kind:Span.Group "round" (fun () ->
        run_round ~tracer:tr t ~seed)
  in
  (round, tr)

(** Per-layer metrics of a traced round, from its spans and counters.
    Layers a workload does not pass through read 0. *)
let layer_metrics t tr =
  let spans = tr.spans in
  let round_wall = Span.duration (Span.get spans 0) in
  let self = Span.self_by_name spans in
  let s name = Option.value (Hashtbl.find_opt self name) ~default:0.0 in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let ms x = x *. 1e3 in
  let p = tr.pauses and m = tr.memsim in
  let per_object x = ratio (x *. 1e9) (float_of_int p.Probe.objects) in
  let verify = s "verify.snapshot" +. s "verify.invariants" +. s "verify.oracle_diff" in
  let i = float_of_int in
  [
    ("workloads.graph_gen_ms", ms (s "workloads.graph_gen"));
    ("workloads.graph_gen_share", ratio (s "workloads.graph_gen") round_wall);
    ( "workloads.graph_gen_ns_per_object",
      ratio (s "workloads.graph_gen" *. 1e9) (i m.live_objects) );
    ("workloads.recycle_ms", ms (s "workloads.recycle"));
    ("workloads.app_phase_ms", ms (s "workloads.app_phase"));
    ("workloads.live_objects", i m.live_objects);
    ("nvmgc.create_ms", ms (s "nvmgc.create"));
    ("nvmgc.collect_ms", ms (s "nvmgc.collect"));
    ("nvmgc.collect_share", ratio (s "nvmgc.collect") round_wall);
    ("nvmgc.collect_ns_per_object", per_object (s "nvmgc.collect"));
    ("nvmgc.objects_copied", i p.objects);
    ("nvmgc.refs_processed", i p.refs);
    ( "nvmgc.header_map_hit_rate",
      ratio (i p.hm_installs) (i (p.hm_installs + p.hm_fallbacks)) );
    ("nvmgc.header_map_fallbacks", i p.hm_fallbacks);
    ("nvmgc.steals", i p.steals);
    ( "nvmgc.sync_flush_share",
      ratio (i p.sync_flushes) (i (p.sync_flushes + p.async_flushes)) );
    ("nvmgc.idle_share", ratio p.idle_ns p.thread_ns);
    ("memsim.create_ms", ms (s "memsim.create"));
    ("memsim.llc_line_accesses", i (m.llc_hits + m.llc_misses));
    ("memsim.llc_hit_rate", ratio (i m.llc_hits) (i (m.llc_hits + m.llc_misses)));
    ("memsim.llc_writebacks", i m.llc_writebacks);
    ("memsim.nvm_write_mb", p.nvm_write_bytes /. 1e6);
    ( "memsim.nvm_queue_wait_share",
      ratio m.nvm_wait_ns (m.nvm_service_ns +. m.nvm_wait_ns) );
    ("simheap.create_ms", ms (s "simheap.create"));
    ("verify.snapshot_ms", ms (s "verify.snapshot"));
    ("verify.invariants_ms", ms (s "verify.invariants"));
    ("verify.oracle_diff_ms", ms (s "verify.oracle_diff"));
    ("verify.share", ratio verify round_wall);
    ("verify.ns_per_object", per_object verify);
    ("simcheck.other_ms", ms (s "simcheck.campaign"));
    ( "simcheck.variant_runs",
      i (match t.kind with Fuzz -> p.collects | Sweep _ -> 0) );
    ( "ledger.residual_share",
      1.0 -. ratio (Span.top_level_time spans) round_wall );
  ]
