(** The composed memory system: two devices (DRAM + NVM), a shared LLC,
    per-device traffic-mix tracking, bandwidth accounting and traces.

    This is the substrate standing in for the paper's evaluation machine.
    All simulated components (heap, GC, mutator) charge their memory
    operations here through {!access_run_into}, whose simulated duration
    (read with {!last_duration}) callers add to their simulated clock.

    Contention is modelled structurally, not by thread counting: each
    device is a pipe whose service credit accrues at wall rate, and every
    access that reaches the device consumes its (interference-penalized)
    service time from it.  When concurrent simulated threads out-demand
    the device, the backlog grows and every access queues — the hard
    bandwidth ceiling that makes NVM GC saturate at a handful of threads
    while DRAM keeps scaling (paper §2.3, Figure 2).  Exponentially
    decaying per-class byte counters track the recent read/write mix (for
    the interference penalty) and double as a consumed-bandwidth
    estimate for diagnostics. *)

type config = {
  dram : Device.t;
  nvm : Device.t;
  llc_capacity_bytes : int;
  llc_ways : int;
  llc_hit_ns : float;
  prefetch_residual : float;
      (** fraction of the miss latency still paid when hitting a
          software-prefetched line (the rest was overlapped) *)
  mix_tau_ns : float;  (** time constant of the traffic-mix EMA *)
  trace_bucket_ns : float;
  trace_enabled : bool;
}

let default_config =
  {
    dram = Device.dram;
    nvm = Device.optane;
    (* LLC sized at 1/64 of the real 38.5 MB to match the default heap
       scale-down. *)
    llc_capacity_bytes = 38_500_000 / 64;
    llc_ways = 11;
    llc_hit_ns = 20.0;
    prefetch_residual = 0.15;
    mix_tau_ns = 25_000.0;
    trace_bucket_ns = 1_000_000.0;
    trace_enabled = false;
  }

(* Exponentially decaying byte counters per access class.  With decay
   time-constant tau, a steady traffic rate r settles at ema = r * tau, so
   ema / tau estimates the recent consumed bandwidth. *)
type mix = {
  mutable read_rand : float;
  mutable read_seq : float;
  mutable write_rand : float;
  mutable write_seq : float;  (** includes non-temporal writes *)
  mutable last_ns : float;
}

type totals = { mutable read_bytes : float; mutable write_bytes : float }

type t = {
  config : config;
  llc : Llc.t;
  mixes : mix array;  (** indexed by space *)
  totals : totals array;
  (* Device-pipe credit bucket, per space: service-time credit accrues at
     wall rate (1 ns per ns) up to a small burst, and every access that
     reaches the device consumes its service time from it.  Aggregate
     service is therefore hard-capped at the device rate, while the burst
     tolerates the micro-reordering inherent in simulating one multi-access
     work item at a time per thread. *)
  pipe_credit_ns : float array;
  pipe_last_ns : float array;
  pipe_service_ns : float array;  (** summed reserved service time *)
  pipe_wait_ns : float array;  (** summed queueing waits *)
  service_by_class : float array array;
      (** [space].[class]: service ns by (read-rand, read-seq, write-rand,
          write-seq, nt, writeback) — diagnostic *)
  trace_read : Simstats.Timeseries.t array;
  trace_write : Simstats.Timeseries.t array;
  dur : float array;
      (** 1-slot out-parameter holding the duration of the last
          {!access_run_into} charge.  A flat float array, not a
          [float ref]: the ref is a generic record, so every [:=] boxes
          the float — millions of avoidable minor allocations per
          sweep — while a float-array store is unboxed. *)
  mutable cause : Nvmtrace.Recorder.cause;
      (** attribution for the continuous recorder: the subsystem whose
          accesses are currently being charged.  Set by the GC around its
          phases (see [Evacuation.charge]); purely observational. *)
  mutable durability : (int, unit) Hashtbl.t option;
      (** crash-survivability tracking (off by default, armed by the
          crash-consistency fuzzer): the set of NVM line ids that have
          ever been written through this model.  An NVM line survives a
          power failure iff it was written AND its line is not sitting
          dirty in the LLC (dirty lines die with the cache; evictions
          write them back to the device first, so post-eviction the line
          is durable again).  Purely observational — never read by the
          timing model. *)
}

let[@inline] space_index : Access.space -> int = function Access.Dram -> 0 | Access.Nvm -> 1

(* Host-profiling phases ({!Simstats.Hostprof}): the memory model is the
   innermost layer every simulated component funnels through, so its
   share of host wall-clock is the first thing the serial-throughput
   work needs to see. *)
let prof_access = Simstats.Hostprof.register "memsim.access"
let prof_llc = Simstats.Hostprof.register "memsim.llc"

let[@inline] class_idx (kind : Access.kind) (pattern : Access.pattern) =
  match kind, pattern with
  | Access.Read, Access.Random -> 0
  | Access.Read, Access.Sequential -> 1
  | Access.Write, Access.Random -> 2
  | Access.Write, Access.Sequential -> 3
  | Access.Nt_write, _ -> 4

let pipe_burst_ns = 4_000.0

(* Consume [service_ns] of device-pipe credit at [now_ns]; returns the
   queueing wait (the backlog ahead of this access).  Credit accrues at
   wall rate up to a small burst and goes negative under overload — the
   negative part is the backlog every new arrival waits behind, which is
   what pins aggregate throughput at the device rate.  Arrivals slightly
   in the past (clock skew between simulated threads) accrue no credit
   but still join the queue. *)
let[@inline] pipe_consume t idx ~now_ns ~service_ns =
  let dt = Float.max 0.0 (now_ns -. t.pipe_last_ns.(idx)) in
  t.pipe_last_ns.(idx) <- Float.max t.pipe_last_ns.(idx) now_ns;
  let credit = Float.min pipe_burst_ns (t.pipe_credit_ns.(idx) +. dt) in
  t.pipe_service_ns.(idx) <- t.pipe_service_ns.(idx) +. service_ns;
  let wait = Float.max 0.0 (-.credit) in
  t.pipe_credit_ns.(idx) <- credit -. service_ns;
  t.pipe_wait_ns.(idx) <- t.pipe_wait_ns.(idx) +. wait;
  wait

(* Random accesses cost the device a full line regardless of useful
   bytes. *)
let[@inline] service_bytes ~(pattern : Access.pattern) ~bytes =
  match pattern with
  | Access.Random ->
      Llc.line_bytes * ((bytes + Llc.line_bytes - 1) / Llc.line_bytes)
  | Access.Sequential -> bytes

let device t : Access.space -> Device.t = function
  | Access.Dram -> t.config.dram
  | Access.Nvm -> t.config.nvm

let create config =
  {
    config;
    llc = Llc.create ~capacity_bytes:config.llc_capacity_bytes ~ways:config.llc_ways;
    mixes =
      Array.init 2 (fun _ ->
          {
            read_rand = 0.0;
            read_seq = 0.0;
            write_rand = 0.0;
            write_seq = 0.0;
            last_ns = 0.0;
          });
    totals =
      Array.init 2 (fun _ ->
          { read_bytes = 0.0; write_bytes = 0.0 });
    pipe_credit_ns = Array.make 2 pipe_burst_ns;
    pipe_last_ns = Array.make 2 0.0;
    pipe_service_ns = Array.make 2 0.0;
    pipe_wait_ns = Array.make 2 0.0;
    service_by_class = Array.init 2 (fun _ -> Array.make 6 0.0);
    trace_read =
      Array.init 2 (fun _ ->
          Simstats.Timeseries.create ~bucket_ns:config.trace_bucket_ns);
    trace_write =
      Array.init 2 (fun _ ->
          Simstats.Timeseries.create ~bucket_ns:config.trace_bucket_ns);
    dur = Array.make 1 0.0;
    cause = Nvmtrace.Recorder.Mutator;
    durability = None;
  }

(* Everything [create] initialises, restored in place: no allocation, and
   the LLC part costs only the sets the previous run filled. *)
let reset t =
  Llc.reset t.llc;
  Array.iter
    (fun m ->
      m.read_rand <- 0.0;
      m.read_seq <- 0.0;
      m.write_rand <- 0.0;
      m.write_seq <- 0.0;
      m.last_ns <- 0.0)
    t.mixes;
  Array.iter
    (fun tot ->
      tot.read_bytes <- 0.0;
      tot.write_bytes <- 0.0)
    t.totals;
  Array.fill t.pipe_credit_ns 0 2 pipe_burst_ns;
  Array.fill t.pipe_last_ns 0 2 0.0;
  Array.fill t.pipe_service_ns 0 2 0.0;
  Array.fill t.pipe_wait_ns 0 2 0.0;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0.0) t.service_by_class;
  Array.iter Simstats.Timeseries.clear t.trace_read;
  Array.iter Simstats.Timeseries.clear t.trace_write;
  t.dur.(0) <- 0.0;
  t.cause <- Nvmtrace.Recorder.Mutator;
  t.durability <- None

let llc t = t.llc

let set_cause t cause = t.cause <- cause
let current_cause t = t.cause

(* Starts small, as crash runs use tiny heaps; the set grows with the lines
   actually written.  Only [replace] and [mem] touch it, so its bucket
   order cannot reach results. *)
let set_durability_tracking t on =
  t.durability <- (if on then Some (Hashtbl.create 64) else None)

let durability_tracking t = t.durability <> None

(* Record that the NVM lines covering [addr, addr + bytes) were written.
   Cacheable writes are recorded too: whether their bytes actually reach
   the device is decided at query time by the line's LLC dirty bit. *)
let mark_nvm_written t ~addr ~bytes =
  match t.durability with
  | None -> ()
  | Some written ->
      let first = addr / Llc.line_bytes in
      let last = (addr + max 1 bytes - 1) / Llc.line_bytes in
      for line = first to last do
        Hashtbl.replace written line ()
      done

let nvm_undurable_in t ~base ~bytes =
  match t.durability with
  | None -> []
  | Some written ->
      if bytes <= 0 then []
      else begin
        let first = base / Llc.line_bytes in
        let last = (base + bytes - 1) / Llc.line_bytes in
        let acc = ref [] in
        for line = last downto first do
          let addr = line * Llc.line_bytes in
          if (not (Hashtbl.mem written line)) || Llc.line_dirty t.llc addr
          then acc := addr :: !acc
        done;
        !acc
      end

let[@inline] decay_mix t mix ~now_ns =
  let dt = now_ns -. mix.last_ns in
  if dt > 0.0 then begin
    let f = exp (-.dt /. t.config.mix_tau_ns) in
    mix.read_rand <- mix.read_rand *. f;
    mix.read_seq <- mix.read_seq *. f;
    mix.write_rand <- mix.write_rand *. f;
    mix.write_seq <- mix.write_seq *. f;
    mix.last_ns <- now_ns
  end

let[@inline] mix_total mix = mix.read_rand +. mix.read_seq +. mix.write_rand +. mix.write_seq

(** Current write fraction of recent traffic to a space, in [0, 1]. *)
let[@inline] write_frac t space ~now_ns =
  let mix = t.mixes.(space_index space) in
  decay_mix t mix ~now_ns;
  let total = mix_total mix in
  if total <= 0.0 then 0.0 else (mix.write_rand +. mix.write_seq) /. total

(** Recent consumed bandwidth on a space, GB/s (= bytes/ns). *)
let consumed_gbps t space ~now_ns =
  let mix = t.mixes.(space_index space) in
  decay_mix t mix ~now_ns;
  mix_total mix /. t.config.mix_tau_ns

(** Utilization of a space under the current class mix. *)
let utilization t space ~now_ns =
  let mix = t.mixes.(space_index space) in
  decay_mix t mix ~now_ns;
  let total = mix_total mix in
  if total <= 0.0 then 0.0
  else begin
    let w = (mix.write_rand +. mix.write_seq) /. total in
    let cap =
      Bandwidth.total_cap (device t space) ~write_frac:w
        ~shares:(mix.read_rand, mix.read_seq, mix.write_rand, mix.write_seq)
    in
    total /. t.config.mix_tau_ns /. cap
  end

let[@inline] record_mix t space ~now_ns ~bytes (kind : Access.kind)
    (pattern : Access.pattern) =
  let mix = t.mixes.(space_index space) in
  decay_mix t mix ~now_ns;
  let b = float_of_int bytes in
  match kind, pattern with
  | Access.Read, Access.Random -> mix.read_rand <- mix.read_rand +. b
  | Access.Read, Access.Sequential -> mix.read_seq <- mix.read_seq +. b
  | Access.Write, Access.Random -> mix.write_rand <- mix.write_rand +. b
  | Access.Write, Access.Sequential | Access.Nt_write, _ ->
      mix.write_seq <- mix.write_seq +. b

(* Device/bandwidth part of one evicted-dirty-line write-back: a posted
   64-byte write to its backing device.  The evicting thread does not
   stall on it, but it consumes device-pipe bandwidth and counts as
   write traffic — this is how cached random header/reference updates
   become the NVM writes the paper measures.  Recorder attribution is
   the caller's business (the run drain batches it per space). *)
let[@inline] wb_device_charge t ~now_ns ~nvm ~seq =
  let space = if nvm then Access.Nvm else Access.Dram in
  let pattern = if seq then Access.Sequential else Access.Random in
  let idx = space_index space in
  let w = write_frac t space ~now_ns in
  record_mix t space ~now_ns ~bytes:Llc.line_bytes Access.Write pattern;
  let rate =
    Bandwidth.service_gbps (device t space) Access.Write pattern ~write_frac:w
  in
  let svc = Bandwidth.transfer_ns ~bytes:Llc.line_bytes ~gbps:rate in
  ignore (pipe_consume t idx ~now_ns ~service_ns:svc);
  t.service_by_class.(idx).(5) <- t.service_by_class.(idx).(5) +. svc;
  t.totals.(idx).write_bytes <-
    t.totals.(idx).write_bytes +. float_of_int Llc.line_bytes;
  if t.config.trace_enabled then
    Simstats.Timeseries.add t.trace_write.(idx) ~time_ns:now_ns
      (float_of_int Llc.line_bytes)

(* Drain the dirty evictions buffered by an {!Llc.access_run} walk or an
   {!Llc.prefetch_q}, in eviction order.  Evicted dirty lines are posted
   write-backs: flush-pipeline traffic regardless of which subsystem
   dirtied the line.  Float-for-float identical to the retired interleaved
   probe/charge loop: a write-back charge reads no LLC state and a probe
   reads no mix/pipe state, so only the order AMONG the charges is
   observable — and that order is preserved.  Recorder attribution is
   batched into at most one delta per space: every contribution is an
   integer-valued float below 2^53, so [k] additions of 64 and one
   addition of [64 k] produce bit-identical totals and window buckets. *)
let drain_run_wbs t ~now_ns recorder =
  let llc = t.llc in
  let n = Llc.run_wb_count llc in
  let dram_lines = ref 0 and nvm_lines = ref 0 in
  for i = 0 to n - 1 do
    let nvm = Llc.run_wb_nvm llc i in
    wb_device_charge t ~now_ns ~nvm ~seq:(Llc.run_wb_seq llc i);
    if nvm then incr nvm_lines else incr dram_lines
  done;
  match recorder with
  | None -> ()
  | Some r ->
      if !dram_lines > 0 then
        Nvmtrace.Recorder.traffic r ~from_ns:now_ns ~until_ns:now_ns
          ~nvm:false ~write:true ~cause:Nvmtrace.Recorder.Flush_pipe
          ~bytes:(float_of_int (!dram_lines * Llc.line_bytes));
      if !nvm_lines > 0 then
        Nvmtrace.Recorder.traffic r ~from_ns:now_ns ~until_ns:now_ns
          ~nvm:true ~write:true ~cause:Nvmtrace.Recorder.Flush_pipe
          ~bytes:(float_of_int (!nvm_lines * Llc.line_bytes))

let llc_gbps = 64.0

(* Duration once [latency] is known.  A latency within the LLC hit cost
   never reaches the device pipe and does not depend on the device rates
   — skip the bandwidth model entirely (the fast path for the
   cache-friendly majority of accesses; low-latency device classes like
   DRAM stores ride it too, their drain being charged at eviction). *)
let[@inline] duration_of t dev ~now_ns ~space ~kind ~pattern ~bytes ~latency ~w
    ~force_device =
  if latency <= t.config.llc_hit_ns then
    latency +. Bandwidth.transfer_ns ~bytes ~gbps:llc_gbps
  else begin
    let bowl = Bandwidth.mix_bowl ~write_frac:w in
    let idx_pipe = space_index space in
    let rate = Bandwidth.service_gbps_b dev kind pattern ~bowl in
    let sbytes = service_bytes ~pattern ~bytes in
    let sbytes =
      (* Uncoalesced RMWs on Optane touch a full 256-byte internal
         block (the XPLine). *)
      if force_device && space = Access.Nvm && sbytes < 128 then 128
      else sbytes
    in
    let service = Bandwidth.transfer_ns ~bytes:sbytes ~gbps:rate in
    let queue_wait = pipe_consume t idx_pipe ~now_ns ~service_ns:service in
    let ci = class_idx kind pattern in
    t.service_by_class.(idx_pipe).(ci) <-
      t.service_by_class.(idx_pipe).(ci) +. service;
    let gbps = Bandwidth.effective_gbps_b dev kind pattern ~bowl in
    let transfer = Float.max service (Bandwidth.transfer_ns ~bytes ~gbps) in
    queue_wait +. latency +. transfer
  end

(* Charge a (possibly multi-line) transfer at [addr] in one call and
   leave its simulated duration in [t.dur].

   Duration = queue wait + (LLC/device) latency + transfer at the issuing
   thread's rate.  The access also occupies the space's device pipe for
   [bytes / service-rate]; when concurrent simulated threads out-demand
   the device, the pipe backlog grows and every subsequent access queues —
   the hard bandwidth ceiling that makes NVM GC non-scalable (§2.3).

   The run is probed through the LLC first with evictions buffered, then
   charged to the mix/bandwidth model — float-for-float identical to a
   per-line loop (the probes touch no float state; see {!drain_run_wbs})
   but with an LLC hit fast path: when the first line hits and nothing
   was evicted, the only float effect is the mix decay to [now_ns], which
   [record_mix] performs identically, so the write-fraction read and the
   whole bandwidth model are skipped. *)
let access_run_into ?(force_device = false) t ~now_ns ~addr ~space ~kind
    ~pattern ~bytes =
  let prof_prev = Simstats.Hostprof.enter prof_access in
  let dev = device t space in
  let is_write = kind <> Access.Read in
  if is_write && space = Access.Nvm && t.durability != None then
    mark_nvm_written t ~addr ~bytes;
  let recorder = Nvmtrace.Hooks.recorder () in
  let duration =
    match kind with
    | (Access.Read | Access.Write) when not force_device ->
        let prev = Simstats.Hostprof.enter prof_llc in
        let lines = (bytes + Llc.line_bytes - 1) / Llc.line_bytes in
        let first =
          Llc.access_run t.llc addr ~lines ~write:is_write
            ~seq:(pattern = Access.Sequential)
            ~nvm:(space = Access.Nvm)
        in
        Simstats.Hostprof.leave prev;
        if
          (match first with Llc.Hit -> true | _ -> false)
          && Llc.run_wb_count t.llc = 0
        then begin
          record_mix t space ~now_ns ~bytes kind pattern;
          t.config.llc_hit_ns +. Bandwidth.transfer_ns ~bytes ~gbps:llc_gbps
        end
        else begin
          (* Mix is read before this access is recorded, so a single
             large transfer does not interfere with itself. *)
          let w = write_frac t space ~now_ns in
          record_mix t space ~now_ns ~bytes kind pattern;
          drain_run_wbs t ~now_ns recorder;
          let latency =
            match first with
            | Llc.Hit -> t.config.llc_hit_ns
            | Llc.Prefetched_hit ->
                t.config.llc_hit_ns
                +. (t.config.prefetch_residual
                   *. Device.latency_ns dev kind pattern)
            | Llc.Miss -> Device.latency_ns dev kind pattern
          in
          duration_of t dev ~now_ns ~space ~kind ~pattern ~bytes ~latency ~w
            ~force_device:false
        end
    | _ ->
        (* Non-temporal stores bypass the cache hierarchy entirely;
           atomic/uncoalesced operations (forwarding-pointer CAS) always
           reach the device, regardless of cache residency. *)
        let w = write_frac t space ~now_ns in
        record_mix t space ~now_ns ~bytes kind pattern;
        let latency =
          match kind with
          | Access.Nt_write -> dev.Device.write_latency_ns
          | Access.Read | Access.Write -> Device.latency_ns dev kind pattern
        in
        duration_of t dev ~now_ns ~space ~kind ~pattern ~bytes ~latency ~w
          ~force_device
  in
  let idx = space_index space in
  let tot = t.totals.(idx) in
  let b = float_of_int bytes in
  if is_write then tot.write_bytes <- tot.write_bytes +. b
  else tot.read_bytes <- tot.read_bytes +. b;
  if t.config.trace_enabled then begin
    let series = if is_write then t.trace_write.(idx) else t.trace_read.(idx) in
    Simstats.Timeseries.add_spread series ~from_ns:now_ns
      ~until_ns:(now_ns +. duration) b
  end;
  (match recorder with
  | None -> ()
  | Some r ->
      Nvmtrace.Recorder.traffic r ~from_ns:now_ns
        ~until_ns:(now_ns +. duration) ~nvm:(space = Access.Nvm)
        ~write:is_write ~cause:t.cause ~bytes:b);
  t.dur.(0) <- duration;
  Simstats.Hostprof.leave prof_prev

let last_duration t = t.dur.(0)

(** Issue a software prefetch for the line at [addr]: marks the LLC and
    consumes read bandwidth.  Returns the (small) issue cost. *)
let prefetch t ~now_ns ~addr space =
  let fetched = Llc.prefetch_q t.llc addr ~nvm:(space = Access.Nvm) in
  (* At most one eviction, so the batched recorder delta is one line.
     Guarded so the common eviction-free prefetch skips the recorder
     lookup. *)
  if Llc.run_wb_count t.llc > 0 then
    drain_run_wbs t ~now_ns (Nvmtrace.Hooks.recorder ());
  if fetched then begin
    (* the prefetched line occupies the device pipe like any other read *)
    record_mix t space ~now_ns ~bytes:Llc.line_bytes Access.Read Access.Random;
    let idx = space_index space in
    let rate =
      Bandwidth.service_gbps (device t space) Access.Read Access.Random
        ~write_frac:(write_frac t space ~now_ns)
    in
    let svc = Bandwidth.transfer_ns ~bytes:Llc.line_bytes ~gbps:rate in
    ignore (pipe_consume t idx ~now_ns ~service_ns:svc);
    t.service_by_class.(idx).(0) <- t.service_by_class.(idx).(0) +. svc;
    t.totals.(idx).read_bytes <-
      t.totals.(idx).read_bytes +. float_of_int Llc.line_bytes;
    if t.config.trace_enabled then
      Simstats.Timeseries.add t.trace_read.(idx) ~time_ns:now_ns
        (float_of_int Llc.line_bytes);
    (match Nvmtrace.Hooks.recorder () with
    | None -> ()
    | Some r ->
        Nvmtrace.Recorder.traffic r ~from_ns:now_ns ~until_ns:now_ns
          ~nvm:(space = Access.Nvm) ~write:false ~cause:t.cause
          ~bytes:(float_of_int Llc.line_bytes))
  end;
  1.5

(** Account bulk traffic whose duration was computed analytically by the
    caller (the mutator's non-GC phases): updates totals, the mix EMA and
    the traces, without deriving a cost. *)
let record_background t ~from_ns ~until_ns ~space ~read_bytes ~write_bytes =
  let idx = space_index space in
  let tot = t.totals.(idx) in
  (* Round the accounted bytes to whole bytes: every other totals
     contribution is integer-valued, and integer-valued float sums below
     2^53 are exact, which is what lets the recorder's per-cause totals
     sum exactly to these aggregates regardless of summation order.  The
     mix EMA keeps the caller's raw value (via the same truncation as
     before), so simulated timing is unaffected. *)
  let read_acc = Float.round read_bytes in
  let write_acc = Float.round write_bytes in
  tot.read_bytes <- tot.read_bytes +. read_acc;
  tot.write_bytes <- tot.write_bytes +. write_acc;
  record_mix t space ~now_ns:until_ns ~bytes:(int_of_float read_bytes)
    Access.Read Access.Random;
  record_mix t space ~now_ns:until_ns ~bytes:(int_of_float write_bytes)
    Access.Write Access.Random;
  if t.config.trace_enabled then begin
    if read_bytes > 0.0 then
      Simstats.Timeseries.add_spread t.trace_read.(idx) ~from_ns ~until_ns
        read_bytes;
    if write_bytes > 0.0 then
      Simstats.Timeseries.add_spread t.trace_write.(idx) ~from_ns ~until_ns
        write_bytes
  end;
  match Nvmtrace.Hooks.recorder () with
  | None -> ()
  | Some r ->
      let nvm = space = Access.Nvm in
      Nvmtrace.Recorder.traffic r ~from_ns ~until_ns ~nvm ~write:false
        ~cause:t.cause ~bytes:read_acc;
      Nvmtrace.Recorder.traffic r ~from_ns ~until_ns ~nvm ~write:true
        ~cause:t.cause ~bytes:write_acc

type snapshot = {
  dram_read_bytes : float;
  dram_write_bytes : float;
  nvm_read_bytes : float;
  nvm_write_bytes : float;
}

let snapshot t =
  {
    dram_read_bytes = t.totals.(0).read_bytes;
    dram_write_bytes = t.totals.(0).write_bytes;
    nvm_read_bytes = t.totals.(1).read_bytes;
    nvm_write_bytes = t.totals.(1).write_bytes;
  }

(** Bytes moved between two snapshots. *)
let diff ~before ~after =
  {
    dram_read_bytes = after.dram_read_bytes -. before.dram_read_bytes;
    dram_write_bytes = after.dram_write_bytes -. before.dram_write_bytes;
    nvm_read_bytes = after.nvm_read_bytes -. before.nvm_read_bytes;
    nvm_write_bytes = after.nvm_write_bytes -. before.nvm_write_bytes;
  }

let pipe_stats t space =
  let i = space_index space in
  (t.pipe_service_ns.(i), t.pipe_wait_ns.(i))

let service_by_class t space = t.service_by_class.(space_index space)

let read_trace t space = t.trace_read.(space_index space)
let write_trace t space = t.trace_write.(space_index space)
