(** A complete stop-the-world young collection: seeding, copy-and-traverse,
    the write-only sub-phase, header-map cleanup, and region reclamation.

    This is the pause structure of G1's young GC (paper §2.1) with the
    NVM-aware mechanisms of §3–4 switchable through {!Gc_config}.  The PS
    variant (§4.4) shares the same pause; its differences (LABs, direct
    copies, no default prefetch) live in the config and the evacuation
    engine. *)

module R = Simheap.Region
module O = Simheap.Objmodel

(* Console log sink (installed by the CLI via --log-gc / -v): JVM-UL-style
   [gc] summary lines and [gc,phases] detail lines.  Suppressed at the
   default Warning threshold, so the cost without a sink is one level
   check per pause. *)
module Log = (val Logs.src_log Nvmtrace.Console.src : Logs.LOG)
module Phases_log = (val Logs.src_log Nvmtrace.Console.phases_src : Logs.LOG)

type t = {
  mutable heap : Simheap.Heap.t;
  mutable memory : Memsim.Memory.t;
  mutable config : Gc_config.t;
  mutable schedule : Schedule.t option;
      (** simulation-testing seam handed to every pause's evacuation
          engine; [None] = the deterministic min-clock policy *)
  mutable header_map : Header_map.t option;
      (** allocated once and reused across pauses, as in the paper *)
  mutable write_cache : Write_cache.t option;
      (** emptied at the start of every pause *)
  mutable last_header_map : Header_map.t option;
  mutable last_write_cache : Write_cache.t option;
      (** the most recent of each this collector built, kept through
          configurations without one so a later {!reset} can reuse it *)
  evac : Evacuation.t;  (** the engine every pause reuses *)
  totals : Gc_stats.totals;
}

let validated who config =
  match Gc_config.validate config with
  | Ok c -> c
  | Error msg -> invalid_arg (who ^ ": " ^ msg)

(* The header map [config] asks for, reusing [old] when it has the same
   geometry. *)
let header_map_for ?old (config : Gc_config.t) =
  if Gc_config.header_map_active config then
    let entries = Gc_config.header_map_entries config in
    let search_bound = config.Gc_config.search_bound in
    match old with
    | Some m when Header_map.fits m ~entries ~search_bound -> old
    | Some _ | None -> Some (Header_map.create ~entries ~search_bound)
  else None

let write_cache_for ?old heap (config : Gc_config.t) =
  if config.Gc_config.write_cache then
    let limit_bytes = config.Gc_config.write_cache_limit_bytes in
    match old with
    | Some wc when Write_cache.limit_bytes wc = limit_bytes -> old
    | Some _ | None -> Some (Write_cache.create heap ~limit_bytes)
  else None

let create ?schedule ~heap ~memory (config : Gc_config.t) =
  let config = validated "Young_gc.create" config in
  let header_map = header_map_for config in
  let write_cache = write_cache_for heap config in
  {
    heap;
    memory;
    config;
    schedule;
    header_map;
    write_cache;
    last_header_map = header_map;
    last_write_cache = write_cache;
    evac = Evacuation.create ~schedule ~heap ~memory ~config ~header_map ();
    totals = Gc_stats.create_totals ();
  }

(* Rebinding in place what [create] would build afresh, reusing whatever
   the new configuration shares with the old one (thread records, stacks,
   a header map of the same geometry, a write cache of the same limit).
   The per-pause state is re-initialised by every [collect] too, but
   clearing it here means an idle pooled collector keeps none of its last
   run's objects alive; what else outlives a pause is the header map (a
   crashed pause leaves entries in it) and the totals. *)
let reset ?schedule ?config t ~heap ~memory =
  (match config with
  | Some c when c <> t.config ->
      let c = validated "Young_gc.reset" c in
      t.header_map <- header_map_for ?old:t.last_header_map c;
      t.write_cache <- write_cache_for ?old:t.last_write_cache heap c;
      if Option.is_some t.header_map then t.last_header_map <- t.header_map;
      if Option.is_some t.write_cache then t.last_write_cache <- t.write_cache;
      t.config <- c
  | Some _ | None -> ());
  t.heap <- heap;
  t.memory <- memory;
  t.schedule <- schedule;
  Evacuation.rebind t.evac ~schedule ~heap ~memory ~config:t.config
    ~header_map:t.header_map;
  Option.iter (fun wc -> Write_cache.reset wc ~heap) t.write_cache;
  Option.iter Header_map.reset t.header_map;
  Gc_stats.reset_totals t.totals

let totals t = t.totals
let header_map t = t.header_map
let heap t = t.heap
let config t = t.config

(* ------------------------------------------------------------------ *)
(* Verification hooks.

   The heap-invariant verifier and the oracle collector live in
   [lib/verify], which depends on this library — so the wiring is a
   registration point rather than a direct call.  [Verify.Hooks] installs
   the pair once per process; [collect] fires them only when the pause's
   configuration asks for verification ({!Gc_config.verify_active}). *)

type verify_hooks = {
  before_pause : t -> unit;
      (** called after the collection set is identified, before any work —
          the oracle snapshots the pre-pause heap here *)
  after_pause : t -> Gc_stats.pause -> unit;
      (** called once the pause is fully wound down (regions reclaimed,
          header map cleared) — invariant checking and oracle diffing *)
}

(* Atomic rather than a plain ref: the slot is process-global and read
   from every domain running a collector.  Installation still happens
   once, before workers spawn; the Atomic makes the publication safe. *)
let verify_hooks : verify_hooks option Atomic.t = Atomic.make None

let set_verify_hooks hooks = Atomic.set verify_hooks hooks

let verifying t =
  Gc_config.verify_active t.config && Atomic.get verify_hooks <> None

(* Seed initial work: remembered-set entries of every collection-set region
   plus the mutator roots, distributed round-robin across GC threads in
   region-sized chunks (G1 scans remsets by region). *)
let seed_work t evac =
  let nthreads = t.config.Gc_config.threads in
  let tid = ref 0 in
  let next_tid () =
    let i = !tid in
    tid := (i + 1) mod nthreads;
    i
  in
  let bytes_per_thread = Array.make nthreads 0 in
  let seed_slot target_tid slot =
    Evacuation.seed evac ~tid:target_tid slot;
    bytes_per_thread.(target_tid) <-
      bytes_per_thread.(target_tid) + Simheap.Layout.ref_bytes
  in
  List.iter
    (fun (region : R.t) ->
      let target = next_tid () in
      Simstats.Vec.iter (fun slot -> seed_slot target slot) region.R.remset)
    (Simheap.Heap.young_regions t.heap);
  Simstats.Vec.iter
    (fun (root : O.root) ->
      if root.O.target <> Simheap.Layout.null then
        seed_slot (next_tid ()) (O.Root root))
    (Simheap.Heap.roots t.heap);
  Array.iteri
    (fun i bytes ->
      if bytes > 0 then Evacuation.charge_remset_scan evac ~tid:i ~bytes)
    bytes_per_thread

(* Split [bytes] of cleanup traffic across [threads], distributing the
   remainder over the first [bytes mod threads] workers so every byte of
   the table is charged to exactly one thread. *)
let cleanup_slices ~bytes ~threads =
  if threads <= 0 then invalid_arg "Young_gc.cleanup_slices: threads <= 0";
  let base = bytes / threads and rem = bytes mod threads in
  Array.init threads (fun i -> base + if i < rem then 1 else 0)

(* Header-map cleanup: all GC threads zero their slice of the table in
   parallel; the paper reports this as trivial next to the pause. *)
let cleanup_header_map t evac ~from_ns =
  match t.header_map with
  | None -> from_ns
  | Some map ->
      let bytes = Header_map.size map * Header_map.entry_bytes in
      let nthreads = t.config.Gc_config.threads in
      let slices = cleanup_slices ~bytes ~threads:nthreads in
      let offset = ref 0 in
      let finish = ref from_ns in
      Memsim.Memory.set_cause t.memory Nvmtrace.Recorder.Gc_other;
      Array.iteri
        (fun i (th : Evacuation.thread) ->
          let slice = slices.(i) in
          th.Evacuation.clock.(0) <-
            Float.max th.Evacuation.clock.(0) from_ns;
          (* Table-sized sequential run: the bulk-transfer path walks
             its thousands of lines with buffered evictions. *)
          Memsim.Memory.access_run_into t.memory
            ~now_ns:th.Evacuation.clock.(0)
            ~addr:(Simheap.Layout.header_map_base + !offset)
            ~space:Memsim.Access.Dram ~kind:Memsim.Access.Write
            ~pattern:Memsim.Access.Sequential ~bytes:slice;
          let d = Memsim.Memory.last_duration t.memory in
          offset := !offset + slice;
          Evacuation.add_breakdown th Evacuation.Cat_cleanup d;
          th.Evacuation.clock.(0) <- th.Evacuation.clock.(0) +. d;
          finish := Float.max !finish th.Evacuation.clock.(0))
        (Evacuation.threads evac);
      Header_map.clear map;
      !finish

(* Reclaim collection-set regions and promote survivor regions to old.
   [cset] is the region list captured when the pause began — the survivor
   regions allocated during evacuation are young too, but must NOT be
   reclaimed. *)
let reclaim t evac ~cset =
  (* Drop address-table bindings of the pre-copy addresses. *)
  Simstats.Vec.iter
    (fun old_addr -> Simheap.Heap.unbind t.heap old_addr)
    (Evacuation.old_addrs evac);
  List.iter
    (fun (region : R.t) ->
      Simstats.Vec.iter
        (fun (obj : O.t) ->
          if R.contains region obj.O.addr then
            (* Never copied: dead — drop it. *)
            Simheap.Heap.unbind t.heap obj.O.addr
          else
            (* Evacuated: scrub pause-local state. *)
            obj.O.forward <- Simheap.Layout.null)
        region.R.objs;
      Simheap.Heap.release_region t.heap region)
    cset;
  (* Freshly filled survivor regions tenure immediately (age threshold 0 in
     the simulator): they leave the young space.  Under a young-gen-DRAM
     placement this re-homes them to the heap device without charging
     promotion traffic — slightly generous to that comparison
     configuration (see DESIGN.md deviations). *)
  List.iter
    (fun (region : R.t) ->
      region.R.kind <- R.Old;
      region.R.space <- Simheap.Heap.old_space t.heap)
    (Simheap.Heap.regions_of_kind t.heap R.Survivor)

(* One per-thread counter summed over [threads]; a top-level recursion so
   the per-pause sums allocate nothing. *)
let rec sum_threads threads f i acc =
  if i = Array.length threads then acc
  else sum_threads threads f (i + 1) (acc + f threads.(i))

let sum threads f = sum_threads threads f 0 0

(* Publish a completed pause (DESIGN.md §9.1): every count and per-pause
   figure is derived here from the record [p], the pause's boundary
   instants and the collector's state at its end.  The instants come from
   the engine, not from [p]'s durations: the trace prints shortest-exact
   floats, so a one-ulp drift would show.  Called after [p] is folded
   into the totals (so [gc_n] numbers it) and before the engine's
   per-pause state is cleared. *)
let publish t evac (p : Gc_stats.pause) ~start_ns ~traverse_end ~flush_end
    ~cleanup_end =
  let gc_n = t.totals.Gc_stats.pauses in
  let threads = Evacuation.threads evac in
  if Nvmtrace.Hooks.metrics () <> None then begin
    (* Durations histogrammed in ns, traffic in bytes.  The component
       families appear once they count something, as they did when each
       component counted its own events. *)
    let count name by = Nvmtrace.Hooks.count ~by name in
    let count_some name by = if by > 0 then count name by in
    count "gc.pauses" 1;
    Nvmtrace.Hooks.observe "gc.pause_ns" p.pause_ns;
    Nvmtrace.Hooks.observe "gc.traverse_ns" p.traverse_ns;
    Nvmtrace.Hooks.observe "gc.flush_ns" p.flush_ns;
    Nvmtrace.Hooks.observe "gc.cleanup_ns" p.cleanup_ns;
    Nvmtrace.Hooks.observe "gc.nvm_read_bytes"
      p.traffic.Memsim.Memory.nvm_read_bytes;
    Nvmtrace.Hooks.observe "gc.nvm_write_bytes"
      p.traffic.Memsim.Memory.nvm_write_bytes;
    count "gc.objects_copied" p.objects_copied;
    count "gc.bytes_copied" p.bytes_copied;
    count "gc.bytes_cached" p.bytes_cached;
    count "gc.bytes_direct" p.bytes_direct;
    count "gc.refs_processed" p.refs_processed;
    count "gc.steals" p.steals;
    count "gc.async_flushes" p.async_flushes;
    count "gc.sync_flushes" p.sync_flushes;
    (* Only a collector with a header map sets the gauge, so the parallel
       merge of a sweep keeps the last pause that had one. *)
    if t.header_map <> None then
      Nvmtrace.Hooks.gauge "gc.header_map_occupancy" p.header_map_occupancy;
    count_some "header_map.installs" p.header_map_installs;
    count_some "header_map.hits" p.header_map_hits;
    count_some "header_map.fallbacks" p.header_map_fallbacks;
    match t.write_cache with
    | None -> ()
    | Some wc ->
        count_some "write_cache.pairs_allocated"
          (Simstats.Vec.length (Write_cache.pairs wc));
        count_some "write_cache.flushes" (p.async_flushes + p.sync_flushes);
        count_some "write_cache.direct_bytes" p.bytes_direct;
        let ready, rearmed, lost = Evacuation.tracker_decisions evac in
        count_some "flush_tracker.ready" ready;
        count_some "flush_tracker.rearms" rearmed;
        count_some "flush_tracker.lost_tracking" lost
  end;
  (* Recorder series on the simulated clock: [gc.live_bytes_evacuated] is
     the write-amplification denominator; the rest are the gauges the
     paper's §3 analysis reads (cache effectiveness, flush backlog, heap
     headroom). *)
  if Nvmtrace.Hooks.recording () then begin
    let now_ns = cleanup_end in
    Nvmtrace.Hooks.track ~now_ns Nvmtrace.Recorder.live_bytes_track
      (float_of_int p.bytes_copied);
    let traverse_s = p.traverse_ns *. 1e-9 in
    if traverse_s > 0.0 then
      Nvmtrace.Hooks.sample ~now_ns "gc.evac_throughput_mbps"
        (float_of_int p.bytes_copied /. 1e6 /. traverse_s);
    if p.bytes_copied > 0 then
      Nvmtrace.Hooks.sample ~now_ns "gc.wc_hit_rate"
        (float_of_int p.bytes_cached /. float_of_int p.bytes_copied);
    Nvmtrace.Hooks.sample ~now_ns "gc.flush_queue_depth"
      (float_of_int p.sync_flushes);
    Nvmtrace.Hooks.sample ~now_ns "heap.free_regions"
      (float_of_int (Simheap.Heap.free_regions t.heap));
    Nvmtrace.Hooks.sample ~now_ns "heap.free_cache_regions"
      (float_of_int (Simheap.Heap.free_cache_regions t.heap));
    if t.header_map <> None then
      Nvmtrace.Hooks.sample ~now_ns "hm.occupancy" p.header_map_occupancy
  end;
  (* The lane names, and the pause with its sub-phases as lane-0 spans;
     the phase spans tile [start_ns, cleanup_end] exactly (enforced by
     test). *)
  if Nvmtrace.Hooks.tracing () then begin
    Nvmtrace.Hooks.lane_name ~lane:0 "pause";
    Array.iter
      (fun (th : Evacuation.thread) ->
        Nvmtrace.Hooks.lane_name ~lane:(Evacuation.lane th)
          (Printf.sprintf "gc-%d" th.Evacuation.tid))
      threads;
    Nvmtrace.Hooks.span ~lane:0 ~name:"pause" ~start_ns ~end_ns:cleanup_end
      ~args:
        [
          ("gc", Nvmtrace.Tracer.Int gc_n);
          ("objects", Nvmtrace.Tracer.Int p.objects_copied);
          ("bytes", Nvmtrace.Tracer.Int p.bytes_copied);
          ("steals", Nvmtrace.Tracer.Int p.steals);
          ("threads", Nvmtrace.Tracer.Int t.config.Gc_config.threads);
          ("config", Nvmtrace.Tracer.Str (Gc_config.describe t.config));
        ]
      ();
    let phase name start_ns end_ns =
      if end_ns > start_ns then
        Nvmtrace.Hooks.span ~lane:0 ~name ~start_ns ~end_ns
          ~args:[ ("gc", Nvmtrace.Tracer.Int gc_n) ]
          ()
    in
    let traverse_start = start_ns +. t.config.Gc_config.pause_overhead_ns in
    phase "prologue" start_ns traverse_start;
    phase "traverse" traverse_start traverse_end;
    phase "write-back" traverse_end flush_end;
    phase "cleanup" flush_end cleanup_end
  end;
  let tags = Nvmtrace.Console.tags ~now_ns:start_ns in
  Log.info (fun m ->
      m ~tags "GC(%d) Pause Young %.3fms (%d objects, %.2f MB, %d threads)"
        gc_n (Gc_stats.pause_ms p) p.objects_copied
        (float_of_int p.bytes_copied /. 1e6)
        t.config.Gc_config.threads);
  Phases_log.debug (fun m -> m ~tags "GC(%d) %a" gc_n Gc_stats.pp_pause p)

(** Run one young collection starting at simulated instant [now_ns].
    Returns the pause statistics (also folded into [totals t]). *)
let collect t ~now_ns =
  let pause_start_ns = now_ns in
  let cset = Simheap.Heap.young_regions t.heap in
  List.iter (fun (r : R.t) -> r.R.in_cset <- true) cset;
  (match Atomic.get verify_hooks with
  | Some hooks when Gc_config.verify_active t.config -> hooks.before_pause t
  | Some _ | None -> ());
  (* Safepoint arrival + serial VM-root scanning: a fixed,
     device-independent prologue every STW pause pays. *)
  let now_ns = now_ns +. t.config.Gc_config.pause_overhead_ns in
  let before = Memsim.Memory.snapshot t.memory in
  Option.iter (fun wc -> Write_cache.reset wc ~heap:t.heap) t.write_cache;
  let evac = t.evac in
  Evacuation.start_pause evac ~write_cache:t.write_cache ~start_ns:now_ns;
  seed_work t evac;
  let traverse_end = Evacuation.run evac in
  let threads = Evacuation.threads evac in
  let idle_ns =
    Array.fold_left
      (fun acc (th : Evacuation.thread) ->
        acc
        +. (traverse_end -. th.Evacuation.clock.(0))
        +. th.Evacuation.spin_ns.(0))
      0.0 threads
  in
  let flush_end, sync_flushes =
    Evacuation.flush_remaining evac ~barrier_ns:traverse_end
  in
  (* Occupancy must be sampled before cleanup clears the table. *)
  let hm_occupancy =
    match t.header_map with
    | Some map -> Header_map.occupancy map
    | None -> 0.0
  in
  let cleanup_end = cleanup_header_map t evac ~from_ns:flush_end in
  reclaim t evac ~cset;
  (* The pause is over: traffic reverts to the mutator. *)
  Memsim.Memory.set_cause t.memory Nvmtrace.Recorder.Mutator;
  let after = Memsim.Memory.snapshot t.memory in
  let overhead = t.config.Gc_config.pause_overhead_ns in
  let bytes_copied = sum threads (fun th -> th.Evacuation.bytes_copied) in
  let bytes_cached = sum threads (fun th -> th.Evacuation.bytes_cached) in
  let pause : Gc_stats.pause =
    {
      pause_ns = cleanup_end -. now_ns +. overhead;
      traverse_ns = traverse_end -. now_ns +. overhead;
      flush_ns = flush_end -. traverse_end;
      cleanup_ns = cleanup_end -. flush_end;
      objects_copied = sum threads (fun th -> th.Evacuation.objects_copied);
      bytes_copied;
      bytes_cached;
      bytes_direct = bytes_copied - bytes_cached;
      refs_processed = sum threads (fun th -> th.Evacuation.refs_processed);
      header_map_installs = sum threads (fun th -> th.Evacuation.hm_installs);
      header_map_hits = sum threads (fun th -> th.Evacuation.hm_hits);
      header_map_fallbacks =
        sum threads (fun th -> th.Evacuation.hm_fallbacks);
      header_map_occupancy = hm_occupancy;
      async_flushes = sum threads (fun th -> th.Evacuation.async_flushes);
      sync_flushes;
      steals = sum threads (fun th -> th.Evacuation.steals);
      idle_ns;
      traffic = Memsim.Memory.diff ~before ~after;
      breakdown =
        Array.init Evacuation.category_count (fun i ->
            Array.fold_left
              (fun acc (th : Evacuation.thread) ->
                acc +. th.Evacuation.breakdown.(i))
              0.0 threads);
    }
  in
  Gc_stats.add t.totals pause;
  publish t evac pause ~start_ns:pause_start_ns ~traverse_end ~flush_end
    ~cleanup_end;
  (* Every per-thread figure has been read now. *)
  Evacuation.end_pause evac;
  (match Atomic.get verify_hooks with
  | Some hooks when Gc_config.verify_active t.config ->
      hooks.after_pause t pause
  | Some _ | None -> ());
  pause
