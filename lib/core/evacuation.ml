(** The copy-and-traverse engine shared by the G1 and PS young collections.

    Implements the four-step loop of paper §3.1 over the simulated heap:

    1. pop a reference from the thread-local stack and locate its referent
       (random read);
    2. copy the referent to a survivor destination (sequential read+write) —
       through the DRAM write cache when enabled;
    3. install the forwarding pointer — in the header map when enabled,
       otherwise twice into the old copy's header (random NVM writes);
    4. update the reference with the new address (random write) and push
       the referent's references (sequential read), prefetching their
       targets.

    Simulated GC threads run under a deterministic min-clock scheduler:
    each step executes one unit of work for the thread with the smallest
    simulated clock and charges its memory costs against {!Memsim.Memory}.
    Work stealing only targets stacks with at least two items, so
    pointer-chain-shaped graphs serialize naturally — reproducing the
    load imbalance the paper observes for akka-uct. *)

module R = Simheap.Region
module O = Simheap.Objmodel

(* Fixed CPU-side costs (ns) of bookkeeping that is not a memory access. *)
let ref_cpu_ns = 55.0
let alloc_cpu_ns = 20.0
let steal_cost_ns = 260.0
let region_refill_ns = 420.0
let lab_refill_ns = 120.0
let idle_spin_ns = 1_000.0
let header_probe_bytes = Header_map.entry_bytes

exception Evacuation_failure of string

(** State carried out of a schedule-injected crash (power failure
    mid-pause): everything the recovery oracle needs that is otherwise
    local to the pause.  The heap itself is left frozen exactly as it
    was — no reclaim ran, collection-set regions still carry [in_cset],
    and evacuated objects keep both their old and new bindings. *)
type crash_state = {
  crash_step : int;  (** the crash point that fired (1-based) *)
  crash_write_cache : Write_cache.t option;
      (** the pause's write cache: its pairs record which shadow regions
          were reported durable ([flushed]) before the power failed *)
  crash_header_map : Header_map.t option;
      (** the pause's DRAM header map — lost in the crash; the oracle
          checks nothing durable depends on it *)
  crash_post_flush_writes : (int * int) list;
      (** (region idx, addr) of every slot update that landed in an
          already-flushed shadow region — each one is a write the flush
          protocol promised could no longer happen *)
}

exception Crashed of crash_state

(** Where a GC thread's time goes — the simulator's version of the paper's
    §3.1 step-by-step memory-behaviour analysis. *)
type category =
  | Cat_locate  (** step 1: find the referent (random read) *)
  | Cat_copy_read  (** step 2: read the object body *)
  | Cat_copy_write  (** step 2: write the new copy *)
  | Cat_forward  (** step 3: install the forwarding pointer *)
  | Cat_ref_update  (** step 4: write the new address into the slot *)
  | Cat_scan  (** step 4: scan the copied object's fields *)
  | Cat_header_map  (** header-map probes (get/put reads) *)
  | Cat_flush  (** write-cache region flushes *)
  | Cat_cleanup  (** header-map clearing, bookkeeping *)
  | Cat_cpu  (** fixed CPU costs, allocation, stealing, spinning *)

let category_count = 10

let category_index = function
  | Cat_locate -> 0
  | Cat_copy_read -> 1
  | Cat_copy_write -> 2
  | Cat_forward -> 3
  | Cat_ref_update -> 4
  | Cat_scan -> 5
  | Cat_header_map -> 6
  | Cat_flush -> 7
  | Cat_cleanup -> 8
  | Cat_cpu -> 9

let category_name = function
  | Cat_locate -> "locate"
  | Cat_copy_read -> "copy-read"
  | Cat_copy_write -> "copy-write"
  | Cat_forward -> "forward"
  | Cat_ref_update -> "ref-update"
  | Cat_scan -> "field-scan"
  | Cat_header_map -> "header-map"
  | Cat_flush -> "flush"
  | Cat_cleanup -> "cleanup"
  | Cat_cpu -> "cpu"

let all_categories =
  [
    Cat_locate; Cat_copy_read; Cat_copy_write; Cat_forward; Cat_ref_update;
    Cat_scan; Cat_header_map; Cat_flush; Cat_cleanup; Cat_cpu;
  ]

type thread = {
  tid : int;
  stack : Work_stack.t;
  clock : float array;
      (** one-element flat array: a mutable float field in this mixed
          record — or a [float ref] — boxes a fresh float on every
          store, and the hot path stores the clock several times per
          work item; a float-array store does not box *)
  mutable terminated : bool;
  mutable pair : Write_cache.pair option;
  mutable survivor : R.t option;
  mutable lab_remaining : int;
  (* counters *)
  mutable refs_processed : int;
  mutable objects_copied : int;
  mutable bytes_copied : int;
  mutable bytes_cached : int;
  mutable hm_installs : int;
  mutable hm_hits : int;
  mutable hm_fallbacks : int;
  mutable steals : int;
  mutable async_flushes : int;
  spin_ns : float array;
      (** time spent in the termination protocol waiting for stealable
          work — the visible face of load imbalance *)
  breakdown : float array;  (** time by {!category} *)
  (* Copy-destination scratch: the destination allocators fill these
     fields in place and [copy_object] reads them back — out-of-band so
     the per-object hot path allocates no destination record.  Only valid
     between an [alloc_destination] and the end of the same copy. *)
  mutable dest_addr : int;  (** official (post-GC) address *)
  mutable dest_phys : int;  (** where the bytes are written now *)
  mutable dest_space : Memsim.Access.space;
  mutable dest_region : R.t;  (** region owning the official address *)
  mutable dest_pair : Write_cache.pair option;
      (** always the [th.pair] box itself when cached — reusing it keeps
          the cached path free of a per-object [Some] *)
}

(* An engine is built once per collector and reused by every pause
   ({!start_pause} re-initialises the per-pause state in place), so the
   thread records, work stacks, slot pool, pair table and schedule
   buffers are allocated once, not once per pause. *)
type t = {
  mutable heap : Simheap.Heap.t;
  mutable store : O.store;  (** [heap]'s object store *)
  mutable memory : Memsim.Memory.t;
  mutable config : Gc_config.t;
  mutable schedule : Schedule.t option;
      (** [Some] replaces every discretionary decision (thread order,
          steal victims, region grabs, fallback/flush timing) — the
          simulation-testing seam.  [None] keeps the min-clock engine. *)
  mutable header_map : Header_map.t option;  (** [Some] iff active this pause *)
  mutable write_cache : Write_cache.t option;
  mutable threads : thread array;  (** the [config.threads] active threads *)
  mutable by_count : thread array array;
      (** [by_count.(n)]: the first [n] thread records, built on first
          use; every entry shares the same records, so a rebind to
          another thread count allocates nothing after the first time *)
  pool : Work_stack.pool;
      (** pause-local root registry backing the packed root slots *)
  mutable mark_stolen : int -> unit;
      (** flag a cache region (by scratch index) stolen-from; built once
          so the steal path allocates no closure *)
  mutable runnable_bufs : int array array;
      (** [runnable_bufs.(n)] has length [n]: the scheduled engine hands
          the schedule the one matching the current runnable count, so a
          step allocates no array *)
  mutable victim_bufs : int array array;  (** the same for steal victims *)
  mutable clock_heap : Clock_heap.t;
      (** the min-clock engine's thread order, sized for every thread
          record, so a run allocates no heap *)
  mutable last_copy_home : int;
      (** home (cache-region index) of the first slot pushed by the most
          recent {!copy_object} — the flush tracker pairs it with that
          copy's [first_slot]; only read when [first_slot] is valid *)
  mutable scratch_first_slot : int;
      (** {!copy_object}'s first-pushed-field cursor — a [t] field
          instead of a local [ref] so the per-object path does not
          allocate one *)
  mutable pair_by_region : Write_cache.pair option array;
      (** live pair of each cache region, indexed by scratch-region
          index (grown on demand) — the per-item home-pair lookup is a
          plain array read where a [Hashtbl.find_opt] would hash and
          allocate *)
  mutable pairs_outstanding : int;
      (** registered-but-unflushed pairs, mirroring the former
          [Hashtbl.length] telemetry *)
  mutable tracker_ready : int;
  mutable tracker_rearmed : int;
  mutable tracker_lost : int;
      (** this pause's {!Flush_tracker.decision}s other than [Keep]: one
          count per engine rather than per thread record, which would
          cost every collector three words per thread *)
  old_addrs : Simstats.Ivec.t;
      (** pre-copy addresses of evacuated objects; their address-table
          bindings must survive the pause (forwarding lookups) and be
          dropped afterwards *)
  mutable busy : int;  (** threads with a non-empty stack *)
  mutable start_ns : float;
  mutable cleared : bool;
      (** nothing touched the per-pause state since the last clear *)
  (* Crash-consistency instrumentation.  All of it is gated on
     [schedule <> None]: production min-clock runs pay one branch. *)
  mutable crash_points : int;  (** crash-point consultation counter *)
  mutable shadows_flushed : bool;  (** some byte of [flushed_shadows] is set *)
  mutable flushed_shadows : Bytes.t;
      (** byte [i] is set when heap region [i] is a shadow reported
          durable so far (grown on demand); probed on every slot update
          of a scheduled run, where hashing an int cost more than the
          update itself *)
  mutable post_flush_writes : (int * int) list;
      (** (region idx, addr) of slot updates into flushed shadows *)
}

(* Placeholder for the destination-scratch region field before the first
   allocation fills it. *)
let dummy_region =
  R.create ~idx:(-1) ~base:0 ~bytes:0 ~space:Memsim.Access.Dram ~kind:R.Free

let make_thread tid =
  {
    tid;
    stack = Work_stack.create ();
    clock = [| 0.0 |];
    terminated = false;
    pair = None;
    survivor = None;
    lab_remaining = 0;
    refs_processed = 0;
    objects_copied = 0;
    bytes_copied = 0;
    bytes_cached = 0;
    hm_installs = 0;
    hm_hits = 0;
    hm_fallbacks = 0;
    steals = 0;
    async_flushes = 0;
    spin_ns = [| 0.0 |];
    breakdown = Array.make category_count 0.0;
    dest_addr = 0;
    dest_phys = 0;
    dest_space = Memsim.Access.Dram;
    dest_region = dummy_region;
    dest_pair = None;
  }

(* Telemetry lane convention: lane 0 carries the pause-level spans
   (Young_gc); GC thread [tid] owns lane [tid + 1]. *)
let lane th = th.tid + 1

let buffers n = Array.init n (fun k -> Array.make k 0)

let create ~schedule ~heap ~memory ~(config : Gc_config.t) ~header_map () =
  let n = config.Gc_config.threads in
  let threads = Array.init n make_thread in
  let t =
    {
      heap;
      store = Simheap.Heap.store heap;
      memory;
      config;
      schedule;
      header_map;
      write_cache = None;
      threads;
      by_count = Array.init (n + 1) (fun k -> if k = n then threads else [||]);
      pool = Work_stack.create_pool ();
      mark_stolen = ignore;
      runnable_bufs = buffers (n + 1);
      victim_bufs = buffers n;
      clock_heap = Clock_heap.create n;
      last_copy_home = -1;
      scratch_first_slot = Work_stack.no_slot;
      pair_by_region = Array.make 8 None;
      pairs_outstanding = 0;
      tracker_ready = 0;
      tracker_rearmed = 0;
      tracker_lost = 0;
      old_addrs = Simstats.Ivec.create ();
      busy = 0;
      start_ns = 0.0;
      cleared = false;
      crash_points = 0;
      shadows_flushed = false;
      flushed_shadows = Bytes.make 64 '\000';
      post_flush_writes = [];
    }
  in
  (* By index, not via the live-pair table: the record semantics this
     replaces marked whatever region record the stolen item pointed at,
     including regions already released (whose next acquisition then
     starts stolen-from).  Scratch regions are singleton records per
     index, so this is the same marking.  Reads [t.heap], so a rebound
     engine marks its current heap. *)
  t.mark_stolen <-
    (fun idx -> (Simheap.Heap.scratch_region t.heap idx).R.stolen_from <- true);
  t

let reset_thread th ~start_ns =
  Work_stack.reset th.stack;
  th.clock.(0) <- start_ns;
  th.terminated <- false;
  th.pair <- None;
  th.survivor <- None;
  th.lab_remaining <- 0;
  th.refs_processed <- 0;
  th.objects_copied <- 0;
  th.bytes_copied <- 0;
  th.bytes_cached <- 0;
  th.hm_installs <- 0;
  th.hm_hits <- 0;
  th.hm_fallbacks <- 0;
  th.steals <- 0;
  th.async_flushes <- 0;
  th.spin_ns.(0) <- 0.0;
  for i = 0 to category_count - 1 do
    th.breakdown.(i) <- 0.0
  done;
  th.dest_addr <- 0;
  th.dest_phys <- 0;
  th.dest_space <- Memsim.Access.Dram;
  th.dest_region <- dummy_region;
  th.dest_pair <- None

(* Everything a pause starts from, set in place: a crashed pause may have
   left any of it mid-flight.  This also drops every reference to the
   previous pause's objects, pairs and regions.  Only the active thread
   records can be dirty: [rebind] clears before it changes the active
   set. *)
let clear_pause_state t ~start_ns =
  for i = 0 to Array.length t.threads - 1 do
    reset_thread t.threads.(i) ~start_ns
  done;
  Work_stack.clear_pool t.pool;
  t.last_copy_home <- -1;
  t.scratch_first_slot <- Work_stack.no_slot;
  (* [pairs_outstanding] counts the [Some] entries exactly, so a table
     every flush has emptied is skipped. *)
  if t.pairs_outstanding > 0 then begin
    for i = 0 to Array.length t.pair_by_region - 1 do
      t.pair_by_region.(i) <- None
    done;
    t.pairs_outstanding <- 0
  end;
  t.tracker_ready <- 0;
  t.tracker_rearmed <- 0;
  t.tracker_lost <- 0;
  Simstats.Ivec.clear_to t.old_addrs ~capacity:Work_stack.kept_capacity;
  t.busy <- 0;
  t.start_ns <- start_ns;
  t.crash_points <- 0;
  if t.shadows_flushed then begin
    Bytes.fill t.flushed_shadows 0 (Bytes.length t.flushed_shadows) '\000';
    t.shadows_flushed <- false
  end;
  t.post_flush_writes <- [];
  t.cleared <- true

(* Make [n] threads active: records past the largest count so far are
   created once, and each count's array is built once. *)
let set_threads t n =
  let max = Array.length t.by_count - 1 in
  if n > max then begin
    let all = t.by_count.(max) in
    let all = Array.init n (fun i -> if i < max then all.(i) else make_thread i) in
    t.by_count <-
      Array.init (n + 1) (fun k ->
          if k = n then all else if k < max then t.by_count.(k) else [||]);
    t.runnable_bufs <- buffers (n + 1);
    t.victim_bufs <- buffers n;
    t.clock_heap <- Clock_heap.create n
  end;
  if Array.length t.by_count.(n) <> n then
    t.by_count.(n) <- Array.sub t.by_count.(Array.length t.by_count - 1) 0 n;
  t.threads <- t.by_count.(n)

(* An idle engine (a pooled collector between runs) keeps nothing of its
   last pause alive. *)
let rebind t ~schedule ~heap ~memory ~config ~header_map =
  t.schedule <- schedule;
  t.heap <- heap;
  t.store <- Simheap.Heap.store heap;
  t.memory <- memory;
  t.config <- config;
  t.header_map <- header_map;
  t.write_cache <- None;
  if not t.cleared then clear_pause_state t ~start_ns:0.0;
  set_threads t config.Gc_config.threads

let end_pause t = clear_pause_state t ~start_ns:0.0

let start_pause t ~write_cache ~start_ns =
  t.write_cache <- write_cache;
  (* A pooled collector's engine was cleared when it went back to the
     pool: only the start instant is left to set. *)
  if t.cleared then begin
    t.start_ns <- start_ns;
    for i = 0 to Array.length t.threads - 1 do
      t.threads.(i).clock.(0) <- start_ns
    done
  end
  else clear_pause_state t ~start_ns;
  t.cleared <- false

let old_addrs t = t.old_addrs

let threads t = t.threads
let tracker_decisions t = (t.tracker_ready, t.tracker_rearmed, t.tracker_lost)

(* ------------------------------------------------------------------ *)
(* Schedule-seam decisions (all default to "no" without a schedule)    *)

let defer_region_grab t th =
  match t.schedule with
  | Some s -> s.Schedule.defer_region_grab ~tid:th.tid
  | None -> false

let force_hm_fallback t th =
  match t.schedule with
  | Some s -> s.Schedule.force_hm_fallback ~tid:th.tid
  | None -> false

let defer_async_flush t th =
  match t.schedule with
  | Some s -> s.Schedule.defer_async_flush ~tid:th.tid
  | None -> false

(* A crash point: a place the simulated power can fail.  Consulted with a
   counter only — no PRNG — so crash wrappers never perturb the base
   schedule's decision stream (probe and crashing runs of the same case
   see identical interleavings up to the crash). *)
let crash_point t =
  match t.schedule with
  | None -> ()
  | Some s ->
      t.crash_points <- t.crash_points + 1;
      if s.Schedule.crash ~step:t.crash_points then
        raise
          (Crashed
             {
               crash_step = t.crash_points;
               crash_write_cache = t.write_cache;
               crash_header_map = t.header_map;
               crash_post_flush_writes = t.post_flush_writes;
             })

(* Injected flush-protocol violations (mutation-testing the recovery
   oracle).  Consulted last in their guards, only where the violation
   is possible, so a schedule that answers [true] once fires at the
   first real opportunity. *)
let flush_early t th =
  match t.schedule with
  | Some s -> s.Schedule.flush_early ~tid:th.tid
  | None -> false

let drop_flush t th =
  match t.schedule with
  | Some s -> s.Schedule.drop_flush ~tid:th.tid
  | None -> false

(* ------------------------------------------------------------------ *)
(* Cost charging                                                       *)

(* Continuous-recorder attribution for each charge category.  The time
   breakdown keeps the fine 10-way split; traffic folds into the
   recorder's coarser cross-subsystem taxonomy. *)
let cause_of_category = function
  | Cat_locate | Cat_copy_read | Cat_copy_write | Cat_forward | Cat_ref_update
  | Cat_scan ->
      Nvmtrace.Recorder.Evac_copy
  | Cat_header_map -> Nvmtrace.Recorder.Header_map
  | Cat_flush -> Nvmtrace.Recorder.Wc_writeback
  | Cat_cleanup | Cat_cpu -> Nvmtrace.Recorder.Gc_other

(* All ordinary GC charges go through the memsim bulk-transfer entry:
   object copies, write-cache write-backs and header-map probe bursts
   are contiguous runs, and the run path is float-identical for the
   single-line charges (digest-gated in CI). *)
let[@inline] charge t th ~cat ~addr ~space ~kind ~pattern ~bytes =
  Memsim.Memory.set_cause t.memory (cause_of_category cat);
  Memsim.Memory.access_run_into t.memory ~now_ns:th.clock.(0) ~addr ~space
    ~kind ~pattern ~bytes;
  let d = Memsim.Memory.last_duration t.memory in
  th.breakdown.(category_index cat) <- th.breakdown.(category_index cat) +. d;
  th.clock.(0) <- th.clock.(0) +. d

(* Atomic/uncoalesced charges (the forwarding CAS) bypass the cache and
   always reach the device. *)
let charge_forced t th ~cat ~addr ~space ~kind ~pattern ~bytes =
  Memsim.Memory.set_cause t.memory (cause_of_category cat);
  Memsim.Memory.access_run_into ~force_device:true t.memory
    ~now_ns:th.clock.(0) ~addr ~space ~kind ~pattern ~bytes;
  let d = Memsim.Memory.last_duration t.memory in
  th.breakdown.(category_index cat) <- th.breakdown.(category_index cat) +. d;
  th.clock.(0) <- th.clock.(0) +. d

let[@inline] charge_cpu th ns =
  th.breakdown.(category_index Cat_cpu) <-
    th.breakdown.(category_index Cat_cpu) +. ns;
  th.clock.(0) <- th.clock.(0) +. ns

let[@inline] add_breakdown th cat ns =
  th.breakdown.(category_index cat) <- th.breakdown.(category_index cat) +. ns

(* Device space a slot's own storage lives on. *)
let[@inline] slot_space t slot =
  if Work_stack.slot_is_root slot then Memsim.Access.Dram
  else begin
    let holder = O.slot_holder slot in
    if O.cached t.store holder then Memsim.Access.Dram
    else (Simheap.Heap.region_of_addr t.heap (O.addr t.store holder)).R.space
  end

(* ------------------------------------------------------------------ *)
(* Live-pair table                                                     *)

(* [boxed] is the [Some pair] the caller already holds, stored as-is so
   per-item lookups hand back that box without allocating. *)
let register_pair t (pair : Write_cache.pair) boxed =
  let idx = pair.Write_cache.cache.R.idx in
  let n = Array.length t.pair_by_region in
  if idx >= n then begin
    let a = Array.make (max (idx + 1) (2 * n)) None in
    Array.blit t.pair_by_region 0 a 0 n;
    t.pair_by_region <- a
  end;
  (match t.pair_by_region.(idx) with
  | None -> t.pairs_outstanding <- t.pairs_outstanding + 1
  | Some _ -> ());
  t.pair_by_region.(idx) <- boxed

let forget_pair t (pair : Write_cache.pair) =
  let idx = pair.Write_cache.cache.R.idx in
  if
    idx < Array.length t.pair_by_region
    && match t.pair_by_region.(idx) with Some _ -> true | None -> false
  then begin
    t.pair_by_region.(idx) <- None;
    t.pairs_outstanding <- t.pairs_outstanding - 1
  end

(* ------------------------------------------------------------------ *)
(* Region flushing                                                     *)

(** Write one cache region back to NVM: sequential DRAM read plus a
    sequential (non-temporal when enabled) NVM write of the used bytes. *)
let flush_pair t th (pair : Write_cache.pair) =
  let used = R.used_bytes pair.Write_cache.cache in
  if Nvmtrace.Hooks.tracing () then
    Nvmtrace.Hooks.instant ~lane:(lane th) ~name:"flush-start" ~ts_ns:th.clock.(0)
      ~args:
        [
          ("region", Nvmtrace.Tracer.Int pair.Write_cache.cache.R.idx);
          ("bytes", Nvmtrace.Tracer.Int used);
        ]
      ();
  if used > 0 then begin
    (* Crash points straddle the write-back: before any bytes move,
       between the staging read and the NVM write (read done, nothing
       durable), and after the write but before the flush is reported
       complete (bytes down, pair still officially unflushed). *)
    crash_point t;
    if drop_flush t th then
      (* Injected fault: skip the device traffic entirely — the pair
         will still be reported flushed below. *)
      crash_point t
    else begin
      charge t th ~cat:Cat_flush ~addr:pair.Write_cache.cache.R.base
        ~space:Memsim.Access.Dram ~kind:Memsim.Access.Read
        ~pattern:Memsim.Access.Sequential ~bytes:used;
      crash_point t;
      let kind =
        if t.config.Gc_config.nt_flush then Memsim.Access.Nt_write
        else Memsim.Access.Write
      in
      charge t th ~cat:Cat_flush ~addr:pair.Write_cache.shadow.R.base
        ~space:pair.Write_cache.shadow.R.space ~kind
        ~pattern:Memsim.Access.Sequential ~bytes:used
    end;
    crash_point t
  end;
  forget_pair t pair;
  if Nvmtrace.Hooks.recording () then
    Nvmtrace.Hooks.sample ~now_ns:th.clock.(0) "wc.pairs_outstanding"
      (float_of_int t.pairs_outstanding);
  if Nvmtrace.Hooks.tracing () then
    Nvmtrace.Hooks.instant ~lane:(lane th) ~name:"flush-complete"
      ~ts_ns:th.clock.(0)
      ~args:[ ("region", Nvmtrace.Tracer.Int pair.Write_cache.cache.R.idx) ]
      ();
  (match t.write_cache with
  | Some wc -> Write_cache.complete_flush wc pair
  | None -> assert false);
  if match t.schedule with Some _ -> true | None -> false then begin
    (* The flush is now reported durable: from here on the oracle holds
       the shadow to the full obligations, and any later write into it
       is a protocol violation. *)
    let idx = pair.Write_cache.shadow.R.idx in
    let n = Bytes.length t.flushed_shadows in
    if idx >= n then begin
      let b = Bytes.make (Int.max (idx + 1) (2 * n)) '\000' in
      Bytes.blit t.flushed_shadows 0 b 0 n;
      t.flushed_shadows <- b
    end;
    Bytes.set t.flushed_shadows idx '\001';
    t.shadows_flushed <- true;
    crash_point t
  end

let async_mode t = t.config.Gc_config.flush_mode = Gc_config.Async

let async_flush t th pair =
  if
    async_mode t
    && (not pair.Write_cache.flushed)
    && not (defer_async_flush t th)
  then begin
    th.async_flushes <- th.async_flushes + 1;
    flush_pair t th pair
  end

(* ------------------------------------------------------------------ *)
(* Destination allocation                                              *)

(* Copy destination: either through the DRAM write cache (official NVM
   address known via the region mapping) or directly into an NVM survivor
   region.  The allocators fill the [th.dest_*] scratch fields in place
   and [alloc_cached] answers success as a bool — a destination record
   (and the options/tuples feeding it) would otherwise be allocated per
   copied object. *)
let rec alloc_cached t th size =
  match th.pair with
  | Some pair ->
      let dram_addr = Write_cache.alloc_addr pair size in
      if dram_addr >= 0 then begin
        th.dest_addr <-
          dram_addr - pair.Write_cache.cache.R.base
          + pair.Write_cache.shadow.R.base;
        th.dest_phys <- dram_addr;
        th.dest_space <- Memsim.Access.Dram;
        th.dest_region <- pair.Write_cache.shadow;
        (* Reuse the caller's own [Some pair] box. *)
        th.dest_pair <- th.pair;
        true
      end
      else begin
        (* Pair filled.  If its tracker already drained, it can be
           flushed right away in async mode; otherwise the Figure-4
           protocol (or the final write-only sub-phase) picks it up. *)
        Write_cache.mark_filled pair;
        th.pair <- None;
        if Flush_tracker.ready_on_fill pair then async_flush t th pair
        else if
          async_mode t
          && (not pair.Write_cache.flushed)
          && flush_early t th
        then begin
          (* Injected fault: the Figure-4 protocol says this pair is
             NOT ready (its memorized last reference is unprocessed, or
             stealing broke the LIFO order it relies on), but flush it
             anyway — reported ready one step early. *)
          th.async_flushes <- th.async_flushes + 1;
          flush_pair t th pair
        end;
        alloc_cached t th size
      end
  | None -> begin
      match t.write_cache with
      | None -> false
      | Some _ when defer_region_grab t th -> false
      | Some wc -> begin
          match Write_cache.new_pair wc with
          | None -> false
          | Some pair ->
              charge_cpu th region_refill_ns;
              let boxed = Some pair in
              register_pair t pair boxed;
              th.pair <- boxed;
              if Nvmtrace.Hooks.tracing () then
                Nvmtrace.Hooks.instant ~lane:(lane th) ~name:"region-grab"
                  ~ts_ns:th.clock.(0)
                  ~args:
                    [ ("region", Nvmtrace.Tracer.Int pair.Write_cache.cache.R.idx) ]
                  ();
              alloc_cached t th size
        end
    end

let rec alloc_direct t th size =
  match th.survivor with
  | Some region ->
      let addr = R.try_alloc region size in
      if addr >= 0 then begin
        th.dest_addr <- addr;
        th.dest_phys <- addr;
        th.dest_space <- region.R.space;
        th.dest_region <- region;
        th.dest_pair <- None
      end
      else begin
        th.survivor <- None;
        alloc_direct t th size
      end
  | None -> begin
      match Simheap.Heap.alloc_region t.heap R.Survivor with
      | None -> raise (Evacuation_failure "survivor space exhausted")
      | Some region ->
          charge_cpu th region_refill_ns;
          th.survivor <- Some region;
          alloc_direct t th size
    end

(* PS refills thread-local allocation buffers inside its survivor space;
   each refill is a CAS on the shared top (paper §4.4). *)
let charge_lab t th size =
  if t.config.Gc_config.lab_bytes <> max_int then begin
    th.lab_remaining <- th.lab_remaining - size;
    if th.lab_remaining < 0 then begin
      charge_cpu th lab_refill_ns;
      th.lab_remaining <- t.config.Gc_config.lab_bytes
    end
  end

(* Fills [th.dest_*]. *)
let alloc_destination t th size =
  charge_cpu th alloc_cpu_ns;
  charge_lab t th size;
  let cacheable = size <= t.config.Gc_config.direct_copy_threshold in
  if not (cacheable && alloc_cached t th size) then alloc_direct t th size

(* ------------------------------------------------------------------ *)
(* Forwarding                                                          *)

(* Look up whether [obj] (at old address [old_addr]) was already copied.
   Returns the forwarding pointer, or [Simheap.Layout.null] when the
   object is not yet forwarded — an int sentinel (the header map never
   stores null values) so the per-item hot path allocates no option.
   Charges header-map probe reads; the NVM header itself was read as part
   of locating the referent. *)
let lookup_forward t th ~old_addr obj =
  match t.header_map with
  | Some map ->
      let fwd = Header_map.get_addr map ~key:old_addr in
      let probes = Header_map.last_probes map in
      charge t th ~cat:Cat_header_map
        ~addr:(Header_map.probe_addr map ~key:old_addr)
        ~space:Memsim.Access.Dram ~kind:Memsim.Access.Read
        ~pattern:Memsim.Access.Random
        ~bytes:(probes * header_probe_bytes);
      if fwd <> Simheap.Layout.null then begin
        th.hm_hits <- th.hm_hits + 1;
        fwd
      end
      else
        (* Not in the map: the header on NVM is authoritative (it may
           hold a fallback install). *)
        O.forward t.store obj
  | None -> O.forward t.store obj

(* The header is written twice on the old copy: the CAS claiming the
   object and the final forwarding value (paper §3.1).  Both are atomic
   and reach the device uncoalesced.  (Top-level rather than local to
   [install_forward] so the per-object hot path allocates no closure.) *)
let install_in_header t th ~old_addr ~old_space ~new_addr obj =
  charge_forced t th ~cat:Cat_forward ~addr:old_addr ~space:old_space
    ~kind:Memsim.Access.Write ~pattern:Memsim.Access.Random
    ~bytes:Simheap.Layout.ref_bytes;
  charge t th ~cat:Cat_forward ~addr:old_addr ~space:old_space
    ~kind:Memsim.Access.Write ~pattern:Memsim.Access.Random
    ~bytes:Simheap.Layout.ref_bytes;
  O.set_forward t.store obj new_addr

(* Install the forwarding pointer for a just-copied object. *)
let install_forward t th ~old_addr ~new_addr ~old_space obj =
  match t.header_map with
  | Some _ when force_hm_fallback t th ->
      (* Schedule seam: behave exactly as a [Full] probe without touching
         the map — the header on NVM stays authoritative for this object. *)
      th.hm_fallbacks <- th.hm_fallbacks + 1;
      if Nvmtrace.Hooks.tracing () then
        Nvmtrace.Hooks.instant ~lane:(lane th) ~name:"hm-fallback"
          ~ts_ns:th.clock.(0)
          ~args:[ ("addr", Nvmtrace.Tracer.Int old_addr) ]
          ();
      install_in_header t th ~old_addr ~old_space ~new_addr obj
  | Some map ->
      (* [put_code]: 0 = installed, -1 = full, >0 = racing installer's
         value — int-coded so the per-object path allocates no tuple. *)
      let code = Header_map.put_code map ~key:old_addr ~value:new_addr in
      let probes = Header_map.last_probes map in
      (* probe reads + the claiming CAS + the value store, all DRAM *)
      charge t th ~cat:Cat_header_map
        ~addr:(Header_map.probe_addr map ~key:old_addr)
        ~space:Memsim.Access.Dram ~kind:Memsim.Access.Read
        ~pattern:Memsim.Access.Random
        ~bytes:(probes * header_probe_bytes);
      if code = 0 then begin
        th.hm_installs <- th.hm_installs + 1;
        charge t th ~cat:Cat_header_map
          ~addr:(Header_map.probe_addr map ~key:old_addr)
          ~space:Memsim.Access.Dram ~kind:Memsim.Access.Write
          ~pattern:Memsim.Access.Random ~bytes:header_probe_bytes
      end
      else if code > 0 then
        (* Only reachable with racing installers; the simulator is
           single-installer per object, so treat as a hit. *)
        th.hm_hits <- th.hm_hits + 1
      else begin
        th.hm_fallbacks <- th.hm_fallbacks + 1;
        if Nvmtrace.Hooks.tracing () then
          Nvmtrace.Hooks.instant ~lane:(lane th) ~name:"hm-fallback"
            ~ts_ns:th.clock.(0)
            ~args:[ ("addr", Nvmtrace.Tracer.Int old_addr) ]
            ();
        install_in_header t th ~old_addr ~old_space ~new_addr obj
      end
  | None -> install_in_header t th ~old_addr ~old_space ~new_addr obj

(* ------------------------------------------------------------------ *)
(* Copy-and-traverse                                                   *)

let[@inline] push_item t th ~slot ~home =
  if Work_stack.is_empty th.stack then t.busy <- t.busy + 1;
  Work_stack.push th.stack ~clock:th.clock.(0) ~slot ~home

(* Copy one object and push its reference fields.  Returns the packed
   slot id of the first pushed field (negative if none); its home index
   is latched in [t.last_copy_home] and the new address in the store —
   out-of-band so the per-object hot path returns an immediate int
   instead of allocating a tuple. *)
let copy_object t th ~old_addr ~old_space obj =
  let st = t.store in
  let size = O.size st obj in
  alloc_destination t th size;
  (* Read the object body from the collection set, write it to the
     destination (step 2: sequential read + write). *)
  charge t th ~cat:Cat_copy_read ~addr:old_addr ~space:old_space
    ~kind:Memsim.Access.Read ~pattern:Memsim.Access.Sequential ~bytes:size;
  charge t th ~cat:Cat_copy_write ~addr:th.dest_phys ~space:th.dest_space
    ~kind:Memsim.Access.Write ~pattern:Memsim.Access.Sequential ~bytes:size;
  install_forward t th ~old_addr ~new_addr:th.dest_addr ~old_space obj;
  (* Re-home the object. *)
  Simstats.Ivec.push t.old_addrs old_addr;
  O.set_addr st obj th.dest_addr;
  O.set_phys st obj th.dest_phys;
  O.set_cached st obj (match th.dest_pair with Some _ -> true | None -> false);
  O.set_age st obj (O.age st obj + 1);
  Simheap.Heap.bind t.heap th.dest_addr obj;
  Simstats.Ivec.push th.dest_region.R.objs obj;
  (match th.dest_pair with
  | Some pair -> Simstats.Ivec.push pair.Write_cache.cache.R.objs obj
  | None -> ());
  th.objects_copied <- th.objects_copied + 1;
  th.bytes_copied <- th.bytes_copied + size;
  (match th.dest_pair with
  | Some _ -> th.bytes_cached <- th.bytes_cached + size
  | None -> ());
  (* Step 4 second half: scan the copied object's reference fields and
     push them (sequential read of the fresh copy — cache-hot). *)
  let nfields = O.nfields st obj in
  t.scratch_first_slot <- Work_stack.no_slot;
  let home =
    match th.dest_pair with
    | Some pair -> pair.Write_cache.cache.R.idx
    | None -> Work_stack.no_home
  in
  if nfields > 0 then begin
    charge t th ~cat:Cat_scan ~addr:(O.field_phys_addr st obj 0)
      ~space:th.dest_space ~kind:Memsim.Access.Read
      ~pattern:Memsim.Access.Sequential
      ~bytes:(nfields * Simheap.Layout.ref_bytes);
    for i = 0 to nfields - 1 do
      let target = O.field st obj i in
      if target <> Simheap.Layout.null then begin
        let slot = O.field_slot obj i in
        if t.scratch_first_slot < 0 then t.scratch_first_slot <- slot;
        push_item t th ~slot ~home;
        if t.config.Gc_config.prefetch then begin
          (* Prefetch the referent's header (vanilla G1 already does
             this) and, with the header map on, its probe line (§4.3). *)
          let space =
            if Simheap.Heap.in_heap_range t.heap target then
              (Simheap.Heap.region_of_addr t.heap target).R.space
            else Memsim.Access.Dram
          in
          Memsim.Memory.set_cause t.memory Nvmtrace.Recorder.Evac_copy;
          charge_cpu th
            (Memsim.Memory.prefetch t.memory ~now_ns:th.clock.(0) ~addr:target
               space);
          match t.header_map with
          | Some map ->
              Memsim.Memory.set_cause t.memory Nvmtrace.Recorder.Header_map;
              charge_cpu th
                (Memsim.Memory.prefetch t.memory ~now_ns:th.clock.(0)
                   ~addr:(Header_map.probe_addr map ~key:target)
                   Memsim.Access.Dram)
          | None -> ()
        end
      end
    done
  end;
  (* Arm the async-flush tracker for the destination pair (Figure 4a). *)
  (match th.dest_pair with
  | Some pair -> Flush_tracker.on_copy pair ~first_slot:t.scratch_first_slot
  | None -> ());
  t.last_copy_home <- home;
  t.scratch_first_slot

(* Step 4 first half: write the referent's new address into the slot
   (random write wherever the slot physically lives).  (Top-level rather
   than local to [process_item] so the per-item hot path allocates no
   closure.) *)
let update_slot t th slot ~ref_addr new_addr =
  if new_addr <> ref_addr then begin
    let addr = Work_stack.slot_addr t.pool t.store slot in
    charge t th ~cat:Cat_ref_update ~addr ~space:(slot_space t slot)
      ~kind:Memsim.Access.Write ~pattern:Memsim.Access.Random
      ~bytes:Simheap.Layout.ref_bytes;
    if (match t.schedule with Some _ -> true | None -> false) then begin
      (* Flush-protocol invariant: a shadow reported durable must never
         receive another write.  Record violations for the recovery
         oracle (the write also leaves the line LLC-dirty, so the
         durability model flags it independently). *)
      if Simheap.Heap.in_heap_range t.heap addr then begin
        let region = Simheap.Heap.region_of_addr t.heap addr in
        let idx = region.R.idx in
        if
          idx < Bytes.length t.flushed_shadows
          && Bytes.get t.flushed_shadows idx <> '\000'
        then
          t.post_flush_writes <- (region.R.idx, addr) :: t.post_flush_writes
      end
    end;
    Work_stack.slot_write t.pool t.store slot new_addr
  end

(* The flush tracker judged [pair] not ready after an item homed in it. *)
let not_ready t th pair =
  if
    async_mode t
    && (not pair.Write_cache.flushed)
    && (match th.pair with Some p -> p == pair | None -> false)
    && flush_early t th
  then begin
    (* Injected fault: answer this decision with Ready — retire and flush
       the pair while the Figure-4 protocol still tracks pending
       references into it (the just-pushed or still-memorized items whose
       slot updates will land after the flush is reported durable). *)
    Write_cache.mark_filled pair;
    th.pair <- None;
    th.async_flushes <- th.async_flushes + 1;
    flush_pair t th pair
  end

(* Process a single popped work item: the §3.1 four-step loop.
   [slot]/[home] are the packed slot id and home cache-region index
   popped off a work stack ([home] negative for "no home"). *)
let process_item t th ~slot ~home =
  charge_cpu th ref_cpu_ns;
  th.refs_processed <- th.refs_processed + 1;
  let ref_addr = Work_stack.slot_referent t.pool t.store slot in
  (* The home pair must be resolved before processing: copying the
     referent can retire this very pair (flush completion) or grab a new
     one, and the flush tracker must see the pair that held the slot when
     the item was popped. *)
  let home_pair =
    (* Plain array read: hands back the [Some pair] box stored at
       registration, so the per-item path allocates nothing. *)
    if home < 0 || home >= Array.length t.pair_by_region then None
    else t.pair_by_region.(home)
  in
  let referent_first_slot =
    if ref_addr = Simheap.Layout.null
       || not (Simheap.Heap.in_heap_range t.heap ref_addr)
    then Work_stack.no_slot
    else begin
      let region = Simheap.Heap.region_of_addr t.heap ref_addr in
      (* Step 1: locate the referent — random read of its header. *)
      charge t th ~cat:Cat_locate ~addr:ref_addr ~space:region.R.space
        ~kind:Memsim.Access.Read ~pattern:Memsim.Access.Random
        ~bytes:Simheap.Layout.header_bytes;
      if not region.R.in_cset then
        (* Outside the collection set: nothing to copy or update. *)
        Work_stack.no_slot
      else begin
        let obj = Simheap.Heap.lookup_exn t.heap ref_addr in
        let fwd = lookup_forward t th ~old_addr:ref_addr obj in
        if fwd <> Simheap.Layout.null then begin
          update_slot t th slot ~ref_addr fwd;
          Work_stack.no_slot
        end
        else begin
          let first_slot =
            copy_object t th ~old_addr:ref_addr ~old_space:region.R.space obj
          in
          update_slot t th slot ~ref_addr (O.addr t.store obj);
          first_slot
        end
      end
    end
  in
  match home_pair with
  | Some pair -> begin
      match
        Flush_tracker.on_processed pair ~slot ~referent_first_slot
          ~referent_home:t.last_copy_home
      with
      | Flush_tracker.Ready p ->
          t.tracker_ready <- t.tracker_ready + 1;
          async_flush t th p
      | Flush_tracker.Keep -> not_ready t th pair
      | Flush_tracker.Rearmed ->
          t.tracker_rearmed <- t.tracker_rearmed + 1;
          not_ready t th pair
      | Flush_tracker.Lost ->
          t.tracker_lost <- t.tracker_lost + 1;
          not_ready t th pair
    end
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)

(* A schedule's answer clamped into [0, n): in range it is used as is,
   sparing the two divisions of the general case on every step. *)
let[@inline] clamp_pick i n = if i >= 0 && i < n then i else ((i mod n) + n) mod n

(* Steal from the victim with the largest stack, but only if it has at
   least two items: single-item stacks (pointer chains) stay with their
   owner, which is what makes chain-shaped graphs serialize.  A schedule
   picks any eligible victim instead. *)
let pick_victim_default t thief =
  let best = ref (-1) in
  let best_len = ref 1 in
  Array.iteri
    (fun i th ->
      if th.tid <> thief.tid then begin
        let len = Work_stack.length th.stack in
        if len >= 2 && len > !best_len then begin
          best := i;
          best_len := len
        end
      end)
    t.threads;
  if !best < 0 then None else Some t.threads.(!best)

(* The schedule sees the victims in [victim_bufs.(count)], ascending; it
   must not keep the array, which the next steal refills. *)
let pick_victim_scheduled t (s : Schedule.t) thief =
  let threads = t.threads in
  let count = ref 0 in
  for i = 0 to Array.length threads - 1 do
    let th = threads.(i) in
    if th.tid <> thief.tid && Work_stack.length th.stack >= 2 then incr count
  done;
  let n = !count in
  if n = 0 then None
  else begin
    let victims = t.victim_bufs.(n) in
    let k = ref 0 in
    for i = 0 to Array.length threads - 1 do
      let th = threads.(i) in
      if th.tid <> thief.tid && Work_stack.length th.stack >= 2 then begin
        victims.(!k) <- th.tid;
        incr k
      end
    done;
    let i = s.Schedule.pick_victim ~thief:thief.tid ~victims in
    Some threads.(victims.(clamp_pick i n))
  end

let try_steal t thief =
  let victim =
    match t.schedule with
    | None -> pick_victim_default t thief
    | Some s -> pick_victim_scheduled t s thief
  in
  match victim with
  | None -> false
  | Some victim ->
      charge_cpu thief steal_cost_ns;
      let chunk =
        max 1
          (min t.config.Gc_config.steal_chunk
             (Work_stack.length victim.stack / 2))
      in
      (* Sync the thief's clock before the move: the victim's
         last-push-clock is unchanged by stealing, so this matches the
         old sync-after-steal order while letting [steal_into] stamp the
         thief's pushes with the synced clock. *)
      thief.clock.(0) <-
        Float.max thief.clock.(0) (Work_stack.last_push_clock victim.stack);
      let thief_was_empty = Work_stack.is_empty thief.stack in
      let moved =
        Work_stack.steal_into victim.stack ~thief:thief.stack ~chunk
          ~clock:thief.clock.(0) ~mark_home:t.mark_stolen
      in
      if Work_stack.length victim.stack = 0 then t.busy <- t.busy - 1;
      if moved > 0 && thief_was_empty then t.busy <- t.busy + 1;
      thief.steals <- thief.steals + 1;
      if Nvmtrace.Hooks.tracing () then
        Nvmtrace.Hooks.instant ~lane:(lane thief) ~name:"steal"
          ~ts_ns:thief.clock.(0)
          ~args:
            [
              ("victim", Nvmtrace.Tracer.Int victim.tid);
              ("items", Nvmtrace.Tracer.Int moved);
            ]
          ();
      moved > 0

let all_stacks_empty t =
  Array.for_all (fun th -> Work_stack.is_empty th.stack) t.threads

(** Seed an initial work item onto a thread's stack (before [run]): a
    remembered-set field slot, or a root. *)
let seed_field t ~tid slot =
  push_item t t.threads.(tid) ~slot ~home:Work_stack.no_home

let seed_root t ~tid root =
  push_item t t.threads.(tid)
    ~slot:(Work_stack.root_slot t.pool root)
    ~home:Work_stack.no_home

(** Charge a thread for scanning its share of remembered sets ([bytes] of
    sequential metadata reads). *)
let charge_remset_scan t ~tid ~bytes =
  let th = t.threads.(tid) in
  charge t th ~cat:Cat_scan ~addr:(Simheap.Layout.root_base - bytes)
    ~space:Memsim.Access.Dram ~kind:Memsim.Access.Read
    ~pattern:Memsim.Access.Sequential ~bytes

(** The production engine: deterministic min-clock scheduling with the
    largest-stack steal policy and the spin-based termination protocol.

    The next thread is the non-terminated one with the smallest clock,
    ties to the lowest index, kept in a {!Clock_heap}.  One sift at the
    root per step keeps the heap exact because a step changes only the
    stepping thread's clock and [terminated] flag: every clock store in
    the loop is a [charge], [charge_forced] or [charge_cpu] on the
    stepping thread, or [try_steal]'s sync of the thief, which is the
    stepping thread.  The heap is built from the clocks at entry, since
    the remembered-set scan charges threads before [run]. *)
let run_min_clock t =
  let threads = t.threads in
  let heap = t.clock_heap in
  Clock_heap.clear heap;
  for i = 0 to Array.length threads - 1 do
    if not threads.(i).terminated then
      Clock_heap.add heap i threads.(i).clock.(0)
  done;
  while not (Clock_heap.is_empty heap) do
    let th = threads.(Clock_heap.top heap) in
    if not (Work_stack.is_empty th.stack) then begin
      let slot = Work_stack.pop_nonempty th.stack in
      let home = Work_stack.popped_home th.stack in
      if Work_stack.is_empty th.stack then t.busy <- t.busy - 1;
      (* popping may empty the stack; pushes during processing
         re-mark it busy *)
      process_item t th ~slot ~home
    end
    else if not (try_steal t th) then begin
      if all_stacks_empty t then th.terminated <- true
      else begin
        (* Someone still holds unstealable work (e.g. a chain):
           spin in the termination protocol and retry. *)
        th.spin_ns.(0) <- th.spin_ns.(0) +. idle_spin_ns;
        charge_cpu th idle_spin_ns
      end
    end;
    if th.terminated then Clock_heap.pop heap
    else Clock_heap.set_top_key heap th.clock.(0)
  done

(* Thread ids able to make progress right now: a non-empty stack (pop) or
   some other thread holding >= 2 items (steal).  Every choice from this
   set pops or steals, so a scheduled traversal always terminates —
   adversarial schedules cannot starve it.  The ids land in
   [runnable_bufs.(count)], ascending; the schedule must not keep that
   array, which the next step refills.  One pass counts the stacks of at
   least two items, so a thread's "someone else is stealable" test is
   O(1) and a step is O(threads). *)
let is_runnable th ~deep ~deep_tid =
  (not th.terminated)
  && ((not (Work_stack.is_empty th.stack))
     || deep >= 2
     || (deep = 1 && deep_tid <> th.tid))

let runnable_tids t =
  let threads = t.threads in
  let n = Array.length threads in
  let deep = ref 0 and deep_tid = ref (-1) in
  for i = 0 to n - 1 do
    if Work_stack.length threads.(i).stack >= 2 then begin
      incr deep;
      deep_tid := threads.(i).tid
    end
  done;
  let deep = !deep and deep_tid = !deep_tid in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if is_runnable threads.(i) ~deep ~deep_tid then incr count
  done;
  let ids = t.runnable_bufs.(!count) in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if is_runnable threads.(i) ~deep ~deep_tid then begin
      ids.(!k) <- threads.(i).tid;
      incr k
    end
  done;
  ids

(** The simulation-testing engine: the schedule picks the next thread
    among those able to progress; the spin path of the termination
    protocol is bypassed (once nobody can progress, everyone is done). *)
let run_scheduled t (s : Schedule.t) =
  let continue_ = ref true in
  while !continue_ do
    crash_point t;
    match runnable_tids t with
    | [||] ->
        Array.iter (fun th -> th.terminated <- true) t.threads;
        continue_ := false
    | runnable -> begin
        let n = Array.length runnable in
        let i = s.Schedule.pick_thread ~runnable in
        let th = t.threads.(runnable.(clamp_pick i n)) in
        if not (Work_stack.is_empty th.stack) then begin
          let slot = Work_stack.pop_nonempty th.stack in
          let home = Work_stack.popped_home th.stack in
          if Work_stack.is_empty th.stack then t.busy <- t.busy - 1;
          process_item t th ~slot ~home
        end
        else
          (* runnable with an empty stack means a victim with >= 2
             items exists, so the steal succeeds *)
          ignore (try_steal t th)
      end
  done

(** Run copy-and-traverse to global termination.  Returns the simulated
    instant the last thread finished. *)
let prof_evacuate = Simstats.Hostprof.register "gc.evacuate"

let run t =
  let prof_prev = Simstats.Hostprof.enter prof_evacuate in
  (match t.schedule with
  | None -> run_min_clock t
  | Some s -> run_scheduled t s);
  Simstats.Hostprof.leave prof_prev;
  (* One "evacuate" span per GC-thread lane: that thread's whole
     copy-and-traverse window (spinning included), so Perfetto shows the
     load imbalance directly. *)
  if Nvmtrace.Hooks.tracing () then
    Array.iter
      (fun th ->
        if th.clock.(0) > t.start_ns then
          Nvmtrace.Hooks.span ~lane:(lane th) ~name:"evacuate"
            ~start_ns:t.start_ns ~end_ns:th.clock.(0)
            ~args:
              [
                ("refs", Nvmtrace.Tracer.Int th.refs_processed);
                ("objects", Nvmtrace.Tracer.Int th.objects_copied);
                ("bytes", Nvmtrace.Tracer.Int th.bytes_copied);
                ("steals", Nvmtrace.Tracer.Int th.steals);
                ("spin_ns", Nvmtrace.Tracer.Float th.spin_ns.(0));
              ]
            ())
      t.threads;
  Array.fold_left (fun acc th -> Float.max acc th.clock.(0)) t.start_ns t.threads

(** Synchronous write-only sub-phase: flush every remaining cache region,
    distributed round-robin over threads starting at the barrier. *)
let flush_remaining t ~barrier_ns =
  match t.write_cache with
  | None -> (barrier_ns, 0)
  | Some wc ->
      let pairs = Write_cache.unflushed_pairs wc in
      Array.iter (fun th -> th.clock.(0) <- Float.max th.clock.(0) barrier_ns) t.threads;
      let n = Array.length t.threads in
      (* only threads that actually got a region contend for bandwidth *)
      t.busy <- min n (List.length pairs);
      List.iteri
        (fun i pair ->
          let th = t.threads.(i mod n) in
          flush_pair t th pair)
        pairs;
      t.busy <- 0;
      let finish =
        Array.fold_left (fun acc th -> Float.max acc th.clock.(0)) barrier_ns
          t.threads
      in
      (finish, List.length pairs)
