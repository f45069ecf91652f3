(** The copy-and-traverse engine shared by the G1 and PS young
    collections: per-thread work stacks with stealing, destination
    allocation (write cache or direct survivor regions), forwarding
    installation (header map or NVM header), asynchronous flushing, and a
    deterministic min-clock scheduler.  See the implementation header for
    the mapping onto the paper's §3.1 four-step loop. *)

exception Evacuation_failure of string
(** Raised when survivor space is exhausted mid-evacuation. *)

(** State carried out of a schedule-injected crash (simulated power
    failure mid-pause): the pause-local structures the recovery oracle
    needs.  The heap is left frozen exactly as the crash found it — no
    reclaim ran, collection-set regions still carry [in_cset], and
    evacuated objects keep both old and new bindings. *)
type crash_state = {
  crash_step : int;  (** the crash point that fired (1-based) *)
  crash_write_cache : Write_cache.t option;
      (** the pause's write cache; its pairs record which shadow regions
          were reported durable ([flushed]) before the power failed *)
  crash_header_map : Header_map.t option;
      (** the pause's DRAM header map — lost in the crash *)
  crash_post_flush_writes : (int * int) list;
      (** (region idx, addr) of every slot update that landed in an
          already-flushed shadow region — writes the flush protocol
          promised could no longer happen *)
}

exception Crashed of crash_state
(** Raised when the installed schedule's [crash] decision fires.  Crash
    points are consulted only under a schedule, so min-clock runs never
    raise this. *)

(** Where a GC thread's time goes — the §3.1 step analysis. *)
type category =
  | Cat_locate
  | Cat_copy_read
  | Cat_copy_write
  | Cat_forward
  | Cat_ref_update
  | Cat_scan
  | Cat_header_map
  | Cat_flush
  | Cat_cleanup
  | Cat_cpu

val category_count : int
val category_index : category -> int
val category_name : category -> string
val all_categories : category list

type thread = {
  tid : int;
  stack : Work_stack.t;
  clock : float array;
      (** one-element flat array: hot-path clock stores must not box.
          A mutable float field in this mixed record would box on every
          store, and so would a [float ref] — [r := !r +. d] allocates a
          fresh boxed float; a float-array store does not. *)
  mutable terminated : bool;
  mutable pair : Write_cache.pair option;
  mutable survivor : Simheap.Region.t option;
  mutable lab_remaining : int;
  mutable refs_processed : int;
  mutable objects_copied : int;
  mutable bytes_copied : int;
  mutable bytes_cached : int;
      (** of [bytes_copied], those copied through the write cache; the
          rest were copied straight to their final space *)
  mutable hm_installs : int;
  mutable hm_hits : int;
  mutable hm_fallbacks : int;
  mutable steals : int;
  mutable async_flushes : int;
  spin_ns : float array;  (** one-element, same boxing rationale *)
  breakdown : float array;
  (* Copy-destination scratch: filled in place by the destination
     allocators so the per-object hot path allocates no destination
     record.  Only valid during a single copy. *)
  mutable dest_addr : int;
  mutable dest_phys : int;
  mutable dest_space : Memsim.Access.space;
  mutable dest_region : Simheap.Region.t;
  mutable dest_pair : Write_cache.pair option;
}

type t

val create :
  schedule:Schedule.t option ->
  heap:Simheap.Heap.t ->
  memory:Memsim.Memory.t ->
  config:Gc_config.t ->
  header_map:Header_map.t option ->
  unit ->
  t
(** One engine per collector, reused by all its pauses: thread records,
    work stacks, the slot pool and the live-pair table are allocated
    here once.  [schedule] replaces every discretionary engine decision
    (next thread, steal victim, region grabs, header-map fallback
    timing, asynchronous-flush readiness) — the simulation-testing seam
    — and injects the crash-consistency faults (power failures and
    flush-protocol violations).  Without it the engine keeps its
    deterministic min-clock policy.  The arrays handed to
    {!Schedule.t.pick_thread} and [pick_victim] are the engine's reused
    buffers: a schedule reads them during the call and must not keep
    them. *)

val rebind :
  t ->
  schedule:Schedule.t option ->
  heap:Simheap.Heap.t ->
  memory:Memsim.Memory.t ->
  config:Gc_config.t ->
  header_map:Header_map.t option ->
  unit
(** Point the engine at another heap, memory, schedule and configuration
    (a pooled collector's next run), and drop everything it held of its
    last pause, as {!start_pause} would.  Thread records are kept across
    thread counts: a rebind allocates only the first time it meets a
    new count. *)

val start_pause :
  t -> write_cache:Write_cache.t option -> start_ns:float -> unit
(** Begin a pause at [start_ns]: every thread's stack, clock, counters
    and destination state, the slot pool, the pair table, the crash-point
    counter and the flushed-shadow record return to their initial
    values, whatever the previous pause (completed or crashed) left. *)

val end_pause : t -> unit
(** Once a completed pause's statistics are read: clear its state, as the
    next {!start_pause} would, so nothing of it stays alive between
    pauses, and drop scratch buffers a large pause grew. *)

val threads : t -> thread array

val tracker_decisions : t -> int * int * int
(** This pause's {!Flush_tracker.decision} counts: [Ready], [Rearmed],
    [Lost]. *)

val lane : thread -> int
(** The thread's telemetry lane, [tid + 1]; lane 0 carries the pause. *)

val old_addrs : t -> Simstats.Ivec.t
(** Pre-copy addresses of evacuated objects, for post-pause unbinding. *)

val add_breakdown : thread -> category -> float -> unit

val seed_field : t -> tid:int -> int -> unit
(** Place a remembered-set field slot ({!Simheap.Objmodel.field_slot}) on
    a thread's stack as an initial work item (before {!run}). *)

val seed_root : t -> tid:int -> Simheap.Objmodel.root -> unit
(** Place a root on a thread's stack as an initial work item. *)

val charge_remset_scan : t -> tid:int -> bytes:int -> unit
(** Charge a thread for scanning its share of remembered-set metadata. *)

val run : t -> float
(** Copy-and-traverse to global termination; returns the simulated
    instant the last thread finished. *)

val flush_remaining : t -> barrier_ns:float -> float * int
(** Synchronous write-only sub-phase: flush every remaining cache region,
    round-robin over threads from the barrier.  Returns the finish
    instant and the number of regions flushed. *)
