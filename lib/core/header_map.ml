(** The header map: a global, lock-free, closed-hashing table in DRAM that
    holds forwarding pointers during a GC pause (paper §3.3, Algorithm 1).

    Installing a forwarding pointer in the map instead of the object header
    eliminates two random NVM writes per copied object.  The table is
    bounded: a [put] that cannot find a free entry within [search_bound]
    probes returns {!Full}, and the caller falls back to installing the
    pointer in the NVM header.

    The implementation is a faithful port of Algorithm 1: linear probing
    from [hash(key)], CAS to claim an empty key slot, and a wait loop for
    racing installers of the same key.  Keys and values are stored in
    [Atomic.t] arrays so the structure is genuinely lock-free and usable
    from real domains (the unit tests exercise it in parallel); the
    simulator itself calls it from one domain and charges the probe/CAS
    costs against the simulated DRAM. *)

type t = {
  keys : int Atomic.t array;
  values : int Atomic.t array;
  mask : int;  (** size - 1; size is a power of two *)
  search_bound : int;
  occupied : int Atomic.t;  (** number of claimed entries, for occupancy stats *)
  mutable last_probes : int;
      (** probe count of the latest {!get_addr}/{!put_code} — an
          out-of-band channel so the per-object hot path need not
          allocate a result tuple.  Only the simulator's single-domain
          cost accounting reads it; concurrent [put]s from the parallel
          unit tests race benignly on this int. *)
}

let entry_bytes = Gc_config.header_map_entry_bytes

(** Simulated DRAM address of entry [idx], for cache/cost accounting. *)
let entry_addr idx = Simheap.Layout.header_map_base + (idx * entry_bytes)

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ~entries ~search_bound =
  if entries <= 0 then invalid_arg "Header_map.create: entries <= 0";
  let size = pow2_at_least entries 64 in
  {
    keys = Array.init size (fun _ -> Atomic.make 0);
    values = Array.init size (fun _ -> Atomic.make 0);
    mask = size - 1;
    search_bound;
    occupied = Atomic.make 0;
    last_probes = 0;
  }

let size t = t.mask + 1

(** Whether [create ~entries ~search_bound] would build a table of this
    one's geometry. *)
let fits t ~entries ~search_bound =
  t.search_bound = search_bound && size t = pow2_at_least entries 64

let occupied t = Atomic.get t.occupied

let occupancy t = float_of_int (occupied t) /. float_of_int (size t)

let last_probes t = t.last_probes

(** Direct entry inspection, for tests and the heap-invariant verifier
    (which asserts the table is fully zeroed after every pause). *)
let key_at t idx = Atomic.get t.keys.(idx)

let value_at t idx = Atomic.get t.values.(idx)

(** Number of entries with a non-zero key — ground truth for the
    [occupied] counter (O(size), verifier/test use only). *)
let nonzero_entries t =
  let n = ref 0 in
  for i = 0 to size t - 1 do
    if Atomic.get t.keys.(i) <> 0 then incr n
  done;
  !n

(* Fibonacci hashing of the old address. *)
let hash t key = key * 0x9E3779B97F4A7C1 land max_int land t.mask

(** Simulated address of the first entry a lookup for [key] probes; used
    for cache-accurate cost accounting and header-map prefetching. *)
let probe_addr t ~key = entry_addr (hash t key)

(** Outcome of {!put}, with the probe count for cost accounting. *)
type put_result =
  | Installed  (** this thread claimed the entry and stored the value *)
  | Found of int  (** another thread already installed this key *)
  | Full  (** probe bound exhausted; install in the NVM header instead *)

let rec await_value t idx =
  let v = Atomic.get t.values.(idx) in
  if v <> 0 then v
  else begin
    Domain.cpu_relax ();
    await_value t idx
  end

(* Scan loops are top-level recursions (a captured local [let rec] would
   allocate a closure per call under classic ocamlopt) and report through
   int codes plus [t.last_probes] — the evacuation engine runs one [put]
   per copied object and one [get] per in-cset reference, so the hot path
   must not box a result tuple or option.

   [put_scan] code: [0] installed, [-1] probe bound exhausted, otherwise
   the already-installed forwarding value (values are non-null). *)
let rec put_scan t key value idx cnt =
  if cnt > t.search_bound then begin
    t.last_probes <- cnt;
    -1
  end
  else begin
    let probed_key = Atomic.get t.keys.(idx) in
    if probed_key = key then begin
      (* Another thread is installing the same object: wait for its value
         (Algorithm 1 lines 35–39). *)
      t.last_probes <- cnt;
      await_value t idx
    end
    else if probed_key <> 0 then put_scan t key value ((idx + 1) land t.mask) (cnt + 1)
    else if Atomic.compare_and_set t.keys.(idx) 0 key then begin
      (* Claimed the entry (lines 31–32). *)
      Atomic.incr t.occupied;
      Atomic.set t.values.(idx) value;
      t.last_probes <- cnt;
      0
    end
    else begin
      (* CAS failed: someone claimed this entry concurrently.  If it was
         for the same key, wait for the value (lines 22–27); otherwise
         keep probing (lines 28–30). *)
      let winner = Atomic.get t.keys.(idx) in
      if winner = key then begin
        t.last_probes <- cnt;
        await_value t idx
      end
      else put_scan t key value ((idx + 1) land t.mask) (cnt + 1)
    end
  end

(** [put_code t ~key ~value] follows Algorithm 1 lines 6–42.  Returns
    [0] when this thread claimed the entry ({!Installed}), [-1] when the
    probe bound was exhausted ({!Full}), and the winner's value when
    another thread already installed this key ({!Found}).  The probe
    count is left in {!last_probes}.  The scan starts at [hash key] —
    the entry {!probe_addr} names — so cost accounting and §4.3
    header-map prefetches target the line the scan actually reads
    first. *)
let put_code t ~key ~value =
  if key = 0 then invalid_arg "Header_map.put: null key";
  if value = 0 then invalid_arg "Header_map.put: null value";
  let code = put_scan t key value (hash t key) 1 in
  (* Telemetry outcome counters (no-ops without an installed registry;
     the registry is only ever installed on single-domain runs). *)
  (if code = 0 then Nvmtrace.Hooks.count ~by:1 "header_map.installs"
   else if code > 0 then Nvmtrace.Hooks.count ~by:1 "header_map.races_found"
   else Nvmtrace.Hooks.count ~by:1 "header_map.fallbacks");
  code

(** Allocating [put_code] wrapper kept for tests and tools. *)
let put t ~key ~value =
  let code = put_code t ~key ~value in
  let outcome =
    if code = 0 then Installed else if code > 0 then Found code else Full
  in
  (outcome, t.last_probes)

let rec get_scan t key idx cnt =
  if cnt > t.search_bound then begin
    t.last_probes <- cnt;
    0
  end
  else begin
    let probed_key = Atomic.get t.keys.(idx) in
    if probed_key = key then begin
      t.last_probes <- cnt;
      await_value t idx
    end
    else if probed_key = 0 then begin
      (* An empty slot ends the probe chain: linear probing never leaves
         gaps for keys inserted before this lookup began. *)
      t.last_probes <- cnt;
      0
    end
    else get_scan t key ((idx + 1) land t.mask) (cnt + 1)
  end

(** [get_addr t ~key] is the bounded lookup described in §3.3: probes
    with the same bound as [put] so every entry a racing [put] may have
    used is examined.  Returns the forwarding pointer, or [0] (the null
    address — never a legal value) when absent; the probe count is left
    in {!last_probes}. *)
let get_addr t ~key =
  if key = 0 then invalid_arg "Header_map.get: null key";
  let v = get_scan t key (hash t key) 1 in
  if v <> 0 then Nvmtrace.Hooks.count ~by:1 "header_map.hits";
  v

(** Allocating [get_addr] wrapper kept for tests and tools. *)
let get t ~key =
  let v = get_addr t ~key in
  ((if v = 0 then None else Some v), t.last_probes)

(** Clear a slice of the table; GC threads split the index space and clear
    in parallel at the end of the pause (§3.3). *)
let clear_range t ~lo ~hi =
  let hi = min hi (size t) in
  for i = max 0 lo to hi - 1 do
    if Atomic.get t.keys.(i) <> 0 then begin
      Atomic.set t.keys.(i) 0;
      Atomic.set t.values.(i) 0;
      Atomic.decr t.occupied
    end
  done

let clear t = clear_range t ~lo:0 ~hi:(size t)

(** Back to the state of [create]: empty, with no probe count latched.
    A crashed pause leaves entries behind, which a reused collector must
    not inherit. *)
let reset t =
  if occupied t <> 0 then clear t;
  t.last_probes <- 0
