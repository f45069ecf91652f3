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
  heap : Simheap.Heap.t;
  memory : Memsim.Memory.t;
  config : Gc_config.t;
  schedule : Schedule.t option;
      (** simulation-testing seam handed to every pause's evacuation
          engine; [None] = the deterministic min-clock policy *)
  header_map : Header_map.t option;
      (** allocated once and reused across pauses, as in the paper *)
  totals : Gc_stats.totals;
}

let create ?schedule ~heap ~memory (config : Gc_config.t) =
  let header_map =
    if Gc_config.header_map_active config then
      Some
        (Header_map.create
           ~entries:(Gc_config.header_map_entries config)
           ~search_bound:config.Gc_config.search_bound)
    else None
  in
  {
    heap;
    memory;
    config;
    schedule;
    header_map;
    totals = Gc_stats.create_totals ();
  }

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
  let write_cache =
    if t.config.Gc_config.write_cache then
      Some
        (Write_cache.create t.heap
           ~limit_bytes:t.config.Gc_config.write_cache_limit_bytes)
    else None
  in
  let evac =
    Evacuation.create ~schedule:t.schedule ~heap:t.heap
      ~memory:t.memory ~config:t.config ~header_map:t.header_map ~write_cache
      ~start_ns:now_ns ()
  in
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
  let sum f = Array.fold_left (fun acc th -> acc + f th) 0 threads in
  let overhead = t.config.Gc_config.pause_overhead_ns in
  let pause : Gc_stats.pause =
    {
      pause_ns = cleanup_end -. now_ns +. overhead;
      traverse_ns = traverse_end -. now_ns +. overhead;
      flush_ns = flush_end -. traverse_end;
      cleanup_ns = cleanup_end -. flush_end;
      objects_copied = sum (fun th -> th.Evacuation.objects_copied);
      bytes_copied = sum (fun th -> th.Evacuation.bytes_copied);
      bytes_cached = sum (fun th -> th.Evacuation.bytes_cached);
      bytes_direct = sum (fun th -> th.Evacuation.bytes_direct);
      refs_processed = sum (fun th -> th.Evacuation.refs_processed);
      header_map_installs = sum (fun th -> th.Evacuation.hm_installs);
      header_map_hits = sum (fun th -> th.Evacuation.hm_hits);
      header_map_fallbacks = sum (fun th -> th.Evacuation.hm_fallbacks);
      header_map_occupancy = hm_occupancy;
      async_flushes = sum (fun th -> th.Evacuation.async_flushes);
      sync_flushes;
      steals = sum (fun th -> th.Evacuation.steals);
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
  let gc_n = t.totals.Gc_stats.pauses in
  (* Continuous-recorder feeds: per-pause derived series on the simulated
     clock.  [gc.live_bytes_evacuated] is the write-amplification
     denominator; the rest are the gauges the paper's §3 analysis reads
     (cache effectiveness, flush backlog, heap headroom). *)
  if Nvmtrace.Hooks.recording () then begin
    Nvmtrace.Hooks.track ~now_ns:cleanup_end Nvmtrace.Recorder.live_bytes_track
      (float_of_int pause.Gc_stats.bytes_copied);
    let traverse_s = (traverse_end -. now_ns +. overhead) *. 1e-9 in
    if traverse_s > 0.0 then
      Nvmtrace.Hooks.sample ~now_ns:cleanup_end "gc.evac_throughput_mbps"
        (float_of_int pause.Gc_stats.bytes_copied /. 1e6 /. traverse_s);
    if pause.Gc_stats.bytes_copied > 0 then
      Nvmtrace.Hooks.sample ~now_ns:cleanup_end "gc.wc_hit_rate"
        (float_of_int pause.Gc_stats.bytes_cached
        /. float_of_int pause.Gc_stats.bytes_copied);
    Nvmtrace.Hooks.sample ~now_ns:cleanup_end "gc.flush_queue_depth"
      (float_of_int sync_flushes);
    Nvmtrace.Hooks.sample ~now_ns:cleanup_end "heap.free_regions"
      (float_of_int (Simheap.Heap.free_regions t.heap));
    Nvmtrace.Hooks.sample ~now_ns:cleanup_end "heap.free_cache_regions"
      (float_of_int (Simheap.Heap.free_cache_regions t.heap));
    if t.header_map <> None then
      Nvmtrace.Hooks.sample ~now_ns:cleanup_end "hm.occupancy" hm_occupancy
  end;
  (* Telemetry: the pause and its sub-phases as lane-0 spans.  The four
     phase spans tile [pause_start_ns, cleanup_end] exactly (the pure
     observation here can never move a clock; enforced by test). *)
  if Nvmtrace.Hooks.tracing () then begin
    let traverse_start = pause_start_ns +. overhead in
    Nvmtrace.Hooks.span ~lane:0 ~name:"pause" ~start_ns:pause_start_ns
      ~end_ns:cleanup_end
      ~args:
        [
          ("gc", Nvmtrace.Tracer.Int gc_n);
          ("objects", Nvmtrace.Tracer.Int pause.Gc_stats.objects_copied);
          ("bytes", Nvmtrace.Tracer.Int pause.Gc_stats.bytes_copied);
          ("steals", Nvmtrace.Tracer.Int pause.Gc_stats.steals);
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
    phase "prologue" pause_start_ns traverse_start;
    phase "traverse" traverse_start traverse_end;
    phase "write-back" traverse_end flush_end;
    phase "cleanup" flush_end cleanup_end
  end;
  let tags = Nvmtrace.Console.tags ~now_ns:pause_start_ns in
  Log.info (fun m ->
      m ~tags "GC(%d) Pause Young %.3fms (%d objects, %.2f MB, %d threads)"
        gc_n
        (Gc_stats.pause_ms pause)
        pause.Gc_stats.objects_copied
        (float_of_int pause.Gc_stats.bytes_copied /. 1e6)
        t.config.Gc_config.threads);
  Phases_log.debug (fun m -> m ~tags "GC(%d) %a" gc_n Gc_stats.pp_pause pause);
  (match Atomic.get verify_hooks with
  | Some hooks when Gc_config.verify_active t.config ->
      hooks.after_pause t pause
  | Some _ | None -> ());
  pause
