(** The composed memory system (DRAM + NVM + shared LLC) that all simulated
    components charge their operations against.  Contention is modelled by
    utilization feedback: recent consumed bandwidth vs the mix-interfered
    device capacity throttles transfers and inflates miss latency. *)

type config = {
  dram : Device.t;
  nvm : Device.t;
  llc_capacity_bytes : int;
  llc_ways : int;
  llc_hit_ns : float;
  prefetch_residual : float;
  mix_tau_ns : float;
  trace_bucket_ns : float;
  trace_enabled : bool;
}

val default_config : config

type t

val create : config -> t
val llc : t -> Llc.t
val device : t -> Access.space -> Device.t

val set_cause : t -> Nvmtrace.Recorder.cause -> unit
(** Set the attribution tag for subsequent charges (continuous-recorder
    bookkeeping only — never affects simulated results).  The GC sets
    this around its phases and restores [Mutator] afterwards. *)

val current_cause : t -> Nvmtrace.Recorder.cause

val set_durability_tracking : t -> bool -> unit
(** Arm (or disarm) crash-survivability tracking: while armed, every NVM
    write records the 64-byte lines it covers.  Off by default; purely
    observational (never read by the timing model).  Arming resets the
    written-line set. *)

val durability_tracking : t -> bool

val nvm_undurable_in : t -> base:int -> bytes:int -> int list
(** The line-aligned addresses in [base, base + bytes) whose contents
    would NOT survive a power failure right now: lines never written to
    NVM through this model, plus lines currently sitting dirty in the
    LLC (a dirty line's latest bytes live only in the cache and die with
    it; its eviction writes them back, after which the line is durable
    again — non-temporal and [force_device] writes bypass the cache and
    are durable immediately).  Sorted ascending.  Requires
    {!set_durability_tracking} armed before the writes of interest;
    unarmed, returns []. *)

val write_frac : t -> Access.space -> now_ns:float -> float
(** Write fraction of recent traffic to the space (EMA-windowed). *)

val consumed_gbps : t -> Access.space -> now_ns:float -> float
(** Recent consumed bandwidth estimate, GB/s. *)

val utilization : t -> Access.space -> now_ns:float -> float
(** Consumed bandwidth over current interfered capacity (can exceed 1). *)

val access_run_into :
  ?force_device:bool ->
  t ->
  now_ns:float ->
  addr:int ->
  space:Access.space ->
  kind:Access.kind ->
  pattern:Access.pattern ->
  bytes:int ->
  unit
(** The one way to charge a memory access: a contiguous [bytes]-long run
    (spanning any number of 64-byte lines; a single-line access is a run
    of one) starting at [addr].  The simulated duration is left in an
    internal cell, read with {!last_duration}, rather than returned — a
    returned float boxes on every call, and the evacuation engine charges
    millions of accesses per pause.  [force_device] models
    atomic/uncoalesced operations (the forwarding-pointer CAS) that
    always reach the device regardless of cache residency.

    The run is walked through the LLC with an incrementally stepped line
    hash and buffered dirty evictions, the per-line write-back charges
    drain in a single pass with recorder attribution batched per space,
    and a run whose first line hits with no evictions skips the
    write-fraction read and the whole bandwidth model.  All of this is
    float-for-float identical to charging the lines one at a time; the
    digest gate in CI holds it to byte-identity. *)

val last_duration : t -> float
(** Duration of the most recent {!access_run_into} charge, in
    nanoseconds. *)

val prefetch : t -> now_ns:float -> addr:int -> Access.space -> float
(** Software prefetch of one line; returns the issue cost in nanoseconds. *)

val record_background :
  t ->
  from_ns:float ->
  until_ns:float ->
  space:Access.space ->
  read_bytes:float ->
  write_bytes:float ->
  unit
(** Account bulk traffic whose duration the caller computed analytically
    (the mutator's non-GC phases): totals, mix EMA and traces only. *)

type snapshot = {
  dram_read_bytes : float;
  dram_write_bytes : float;
  nvm_read_bytes : float;
  nvm_write_bytes : float;
}

val snapshot : t -> snapshot
val diff : before:snapshot -> after:snapshot -> snapshot

val pipe_stats : t -> Access.space -> float * float
(** (summed service ns, summed queue-wait ns) for a space's device pipe. *)

val service_by_class : t -> Access.space -> float array
(** Diagnostic: service ns by class (read-rand, read-seq, write-rand,
    write-seq, nt-write, write-back). *)

val read_trace : t -> Access.space -> Simstats.Timeseries.t
val write_trace : t -> Access.space -> Simstats.Timeseries.t
