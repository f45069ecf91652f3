(** Mixed-workload bandwidth model.

    The model composes three effects the paper identifies as the root cause
    of GC slowdown on NVM (§2.2–2.3):

    1. {b Write interference.}  The total bandwidth available to a workload
       with write fraction [w] is the harmonic mix of the read and write
       caps, scaled down by an interference penalty that peaks for 50/50
       mixes.  On Optane this penalty is severe; on DRAM it is mild.

    2. {b Thread sharing.}  [n] active threads share the device cap; each
       thread is additionally limited by its own achievable single-thread
       bandwidth (MLP / fill-buffer limits), so few threads cannot saturate
       DRAM while a handful saturates NVM.

    3. {b Pattern sensitivity.}  Random accesses see lower caps than
       sequential ones, and non-temporal sequential stores see a higher
       write cap than regular stores. *)

(** [Float.min] and [Float.max], bit for bit, without their cost:
    the stdlib pair calls [sign_bit] (a C call) whenever its first
    comparison fails, which on the memory model's path is about half
    the time.  A strict comparison decides every input but ties and
    NaNs, and there the stdlib decides ([-0.0] against [+0.0], NaN
    propagation). *)
let[@inline] fmin x y =
  if y < x then y else if x < y then x else Float.min x y

let[@inline] fmax x y =
  if y > x then y else if x > y then x else Float.max x y

(** The mix "bowl" in [0, 1]: 0 for pure reads or pure writes, peaking at
    50/50.  It saturates quickly in the write fraction: on Optane even a
    ~10 % write share collapses the total bandwidth (Izraelevitz et al.),
    which is why eliminating *most* writes (write cache) recovers little
    until the remaining header/reference writes also go (header map).
    The [**] makes this the single most expensive float operation on the
    hot path: {!Memory.access_run_into} computes it once per access that
    reaches a device, and feeds the [~bowl] variants below, and the
    write-back drain once per evicted dirty line. *)
let[@inline] mix_bowl ~write_frac =
  let w = fmax 0.0 (fmin 1.0 write_frac) in
  (4.0 *. w *. (1.0 -. w)) ** 0.30

(* floor keeps a pathological mix from zeroing bandwidth entirely *)
let[@inline] penalty_of_bowl (d : Device.t) ~bowl =
  fmax 0.18 (1.0 -. (d.Device.write_interference *. bowl))

(** Interference penalty multiplier in (0, 1]; 1 when the stream is pure
    reads or pure writes. *)
let mix_penalty (d : Device.t) ~write_frac =
  penalty_of_bowl d ~bowl:(mix_bowl ~write_frac)

(** Device-level cap for a given access class under the current mix, with
    the bowl precomputed by the caller. *)
let[@inline] device_cap_b (d : Device.t) (kind : Access.kind) (pattern : Access.pattern)
    ~bowl =
  let base = Device.device_bw d kind pattern in
  match kind with
  | Access.Nt_write ->
      (* Non-temporal stores stream straight to the write-pending queue
         and largely keep their bandwidth in mixed workloads (§4.1) —
         largely, not fully: interleaving them with a read stream (as
         asynchronous flushing does) still shares the media, at half the
         usual interference. *)
      base *. fmax 0.18 (1.0 -. (d.Device.write_interference /. 2.0 *. bowl))
  | Access.Read | Access.Write ->
      (* Reads and writes contend through the shared device pipe; the
         interference penalty shrinks every class's rate when the recent
         mix combines reads with writes.  Sharing between concurrent
         accesses is handled by time-multiplexing the pipe in {!Memory},
         not by a static share factor. *)
      base *. penalty_of_bowl d ~bowl

(** Device-level cap for a given access class under the current mix. *)
let device_cap (d : Device.t) (kind : Access.kind) (pattern : Access.pattern)
    ~write_frac =
  device_cap_b d kind pattern ~bowl:(mix_bowl ~write_frac)

(** Total device capacity (GB/s) under the observed class mix: interfered
    harmonic blend of the per-class caps, weighted by each class's byte
    share.  [shares] are fractions summing to ~1 in the order
    (read-random, read-seq, write-random, write-seq). *)
let total_cap (d : Device.t) ~write_frac
    ~(shares : float * float * float * float) =
  let rr, rs, wr, ws = shares in
  let total = rr +. rs +. wr +. ws in
  if total <= 0.0 then d.Device.bw_read_seq
  else begin
    let f x = x /. total in
    let inv =
      (f rr /. d.Device.bw_read_random)
      +. (f rs /. d.Device.bw_read_seq)
      +. (f wr /. d.Device.bw_write_random)
      +. (f ws /. d.Device.bw_write_seq)
    in
    mix_penalty d ~write_frac /. inv
  end

(** Rate at which an access of this class drains through the device pipe
    (GB/s): the class cap under the current interference penalty.  This is
    the service rate of the queueing model in {!Memory}. *)
let[@inline] service_gbps_b (d : Device.t) (kind : Access.kind)
    (pattern : Access.pattern) ~bowl =
  fmax 0.05 (device_cap_b d kind pattern ~bowl)

let service_gbps (d : Device.t) (kind : Access.kind)
    (pattern : Access.pattern) ~write_frac =
  service_gbps_b d kind pattern ~bowl:(mix_bowl ~write_frac)

(** Bandwidth the issuing thread itself can sustain for this access: its
    solo (MLP-limited) capability, degraded by the same interference
    penalty as the device (a lone thread mixing reads and writes also
    stalls on the media), never above the device's current class rate. *)
let[@inline] effective_gbps_b (d : Device.t) (kind : Access.kind)
    (pattern : Access.pattern) ~bowl =
  let cap = service_gbps_b d kind pattern ~bowl in
  let solo =
    match kind with
    | Access.Nt_write -> Device.thread_bw d kind pattern
    | Access.Read | Access.Write ->
        Device.thread_bw d kind pattern *. penalty_of_bowl d ~bowl
  in
  fmax 0.05 (fmin solo cap)

let effective_gbps (d : Device.t) (kind : Access.kind)
    (pattern : Access.pattern) ~write_frac =
  effective_gbps_b d kind pattern ~bowl:(mix_bowl ~write_frac)

(** Transfer time in nanoseconds for [bytes] at [gbps].
    1 GB/s = 1 byte/ns, so this is simply bytes / gbps. *)
let[@inline] transfer_ns ~bytes ~gbps = float_of_int bytes /. gbps
