(** Last-level cache model.

    A set-associative cache with LRU replacement over 64-byte lines.  The
    GC's copy-and-traverse phase has poor locality (paper §2.2), so what
    matters is (a) whether an access misses, (b) whether a software
    prefetch hid part of the miss latency (§4.3), and (c) where dirty
    lines go when they are evicted: a write that hits in cache still costs
    the device a write-back later, which is how the random header and
    reference updates of vanilla G1 turn into the NVM write traffic the
    paper measures.

    Prefetched lines carry a flag: the first demand access to such a line
    is charged only a residual fraction of the miss latency.

    The paper's Intel CAT experiment (restricting GC to 1/16 of the LLC)
    maps onto the [capacity_bytes] knob. *)

let line_bytes = 64

(* Flat struct-of-arrays layout: the state of every set lives in three
   int arrays, so [create] is a constant number of allocations however
   many sets the cache has (a per-set record plus three per-set arrays
   cost 4 blocks per set, promoted out of the minor heap at the next
   minor GC).

   - [tags] / [link]: set [s]'s ways occupy [s lsl wshift .. + ways) —
     a power-of-two way stride, so the set base is a shift.  [tags.(i)]
     is the resident line id (-1 = invalid); [link.(i)] packs the way's
     neighbours in the set's recency list, [(prev lsl 7) lor next]
     ([nil] = 127: ways are at most 63, so 7-bit fields fit), prev
     being the more recently touched side.  Padding ways past [ways]
     are never read.
   - [meta]: one [1 lsl mshift]-word block per set (8 words = one 64-byte
     cache line up to 14 ways) holding, at the [m_*] offsets below:
     the list ends [(head lsl 7) lor tail] (head = most recently
     touched way, tail = the LRU victim), the
     [prefetched] / [dirty] / [nvm] / [seqw] way bitmasks ([nvm]: the
     line belongs to the NVM space; [seqw]: it was dirtied by a
     sequential write, so its write-back drains at the sequential rate;
     one bit per way in a native int, hence at most 63 ways), the
     touched flag (see {!reset}), then the packed fingerprint words.

   Fingerprints: an 8-bit hash of each resident line, 7 ways per native
   int in 9-bit lanes; an absent way's lane holds 0x100, which no 8-bit
   fingerprint can equal.  Lookups scan these words with a SWAR
   equal-lane test instead of walking [tags] — one ALU probe covers 7
   ways.  The lane test can report false positives (borrow propagation
   in the subtraction trick), never false negatives, so candidates are
   confirmed against [tags].

   Replacement: a hit or install moves its way to the head of the list
   ({!touch}) and a miss evicts the tail, so both cost O(1) whatever the
   associativity.  A fresh set's list runs 0, 1, .., ways-1 from head to
   tail, so untouched ways are evicted highest index first. *)
let m_ends = 0
let m_prefetched = 1
let m_dirty = 2
let m_nvm = 3
let m_seqw = 4
let m_touched = 5
let m_fps = 6

type t = {
  nsets : int;
  set_mask : int;  (** nsets - 1; nsets is a power of two *)
  ways : int;
  wshift : int;  (** log2 of the way stride in [tags] / [link] *)
  mshift : int;  (** log2 of the per-set block size in [meta] *)
  fp_words : int;
  tags : int array;
  link : int array;
  meta : int array;
  touched : int array;
      (** indices of the sets filled since creation or the last {!reset},
          in first-fill order; a set is listed once, guarded by its
          [m_touched] flag *)
  mutable n_touched : int;
  (* Write-back buffer: dirty evictions produced by {!access_run} and
     {!prefetch_q} accumulate here, so a whole contiguous N-line run can
     be walked without draining between probes.  Each entry packs the
     evicted line's nvm (bit 0) and seq (bit 1) flags. *)
  mutable run_wb : int array;
  mutable run_wb_len : int;
  mutable hits : int;
  mutable misses : int;
  mutable prefetch_hits : int;
  mutable prefetch_issued : int;
  mutable writebacks : int;
}

(* Fingerprint packing: 7 ways per word, 9-bit lanes (7 * 9 = 63 bits,
   the full native int).  The 9th lane bit lets the absent marker 0x100
   sit outside the 8-bit fingerprint range and doubles as the SWAR
   match-detect bit. *)
let fp_lanes = 7
let fp_shift = 9
let fp_lane_mask = 0x1FF
let fp_absent = 0x100

let fp_low =
  (* bit 0 of every lane *)
  let rec go l acc =
    if l >= fp_lanes then acc else go (l + 1) (acc lor (1 lsl (fp_shift * l)))
  in
  go 0 0

let fp_high = fp_low lsl 8 (* bit 8 of every lane *)
let fp_absent_word = fp_absent * fp_low

(* Smallest [k] with [1 lsl k >= n]. *)
let log2_ceil n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let max_ways = 63

(* Recency-list packing: 7-bit way indices, [nil] past any legal way. *)
let way_bits = 7
let way_mask = (1 lsl way_bits) - 1
let nil = way_mask

(* Initial state of set [s]: no line resident, recency list 0 .. ways-1,
   zero masks and touched flag, every fingerprint lane absent. *)
(* Plain loops rather than [Array.fill]: a set is a dozen words, and
   {!reset} re-initialises every touched set of a fuzz run's memory, where
   three C calls per set cost more than the stores. *)
let init_set ~ways ~wshift ~mshift ~fp_words tags link meta s =
  let tb = s lsl wshift and mb = s lsl mshift in
  for i = 0 to ways - 1 do
    tags.(tb + i) <- -1;
    link.(tb + i) <-
      ((if i = 0 then nil else i - 1) lsl way_bits)
      lor if i = ways - 1 then nil else i + 1
  done;
  meta.(mb + m_ends) <- ways - 1;
  for i = m_ends + 1 to m_fps - 1 do
    meta.(mb + i) <- 0
  done;
  for i = 0 to fp_words - 1 do
    meta.(mb + m_fps + i) <- fp_absent_word
  done

let create ~capacity_bytes ~ways =
  if ways < 1 || ways > max_ways then
    invalid_arg
      (Printf.sprintf "Llc.create: ways = %d, must be in 1..%d" ways max_ways);
  let lines = max ways (capacity_bytes / line_bytes) in
  let nsets_raw = max 1 (lines / ways) in
  (* round set count down to a power of two for cheap indexing *)
  let rec pow2 acc = if acc * 2 > nsets_raw then acc else pow2 (acc * 2) in
  let nsets = pow2 1 in
  let fp_words = (ways + fp_lanes - 1) / fp_lanes in
  let wshift = log2_ceil ways and mshift = log2_ceil (m_fps + fp_words) in
  let tags = Array.make (nsets lsl wshift) (-1) in
  let link = Array.make (nsets lsl wshift) 0 in
  let meta = Array.make (nsets lsl mshift) 0 in
  for s = 0 to nsets - 1 do
    init_set ~ways ~wshift ~mshift ~fp_words tags link meta s
  done;
  {
    nsets;
    set_mask = nsets - 1;
    ways;
    wshift;
    mshift;
    fp_words;
    tags;
    link;
    meta;
    touched = Array.make nsets 0;
    n_touched = 0;
    run_wb = Array.make 64 0;
    run_wb_len = 0;
    hits = 0;
    misses = 0;
    prefetch_hits = 0;
    prefetch_issued = 0;
    writebacks = 0;
  }

let capacity_bytes t = t.nsets * t.ways * line_bytes

(* Mix the line id so that strided heap layouts spread over sets.  The
   multiply keeps the id non-negative on 63-bit ints for any heap-sized
   line id, and nsets is a power of two, so masking == mod.  The set
   index takes the hash's low bits; the fingerprint takes 8 bits from
   the middle so the two stay decorrelated within a set. *)
let[@inline] hash_line line = line * 0x9E3779B1 land max_int
let fp_of_hash h = (h lsr 24) land 0xff

(* Way holding [line] in the set whose ways start at [tb] and whose
   fingerprint words start at [fb], or -1: scan the packed fingerprint
   words and confirm candidate lanes (false positives only) against
   [tags].  The lane loop is bounded by [ways], never the lane count —
   the tail word's spare lanes hold [fp_absent] and under [-unsafe] an
   unchecked [tags] read past [ways] must stay unreachable.  Pure:
   mutates no recency state. *)
(* The scan/confirm recursions live at top level with all state passed
   as arguments: a captured local [let rec] costs a closure allocation
   per call in classic (non-flambda) ocamlopt, and this probe runs once
   per simulated memory access. *)
let rec fp_confirm (tags : int array) (line : int) (m : int) (tb : int)
    (base : int) (limit : int) (l : int) =
  if l >= limit then -1
  else if
    m land (1 lsl ((l * fp_shift) + 8)) <> 0 && tags.(tb + base + l) = line
  then base + l
  else fp_confirm tags line m tb base limit (l + 1)

let rec fp_scan (meta : int array) (tags : int array) (fb : int)
    (nwords : int) (needle : int) (line : int) (tb : int) (ways : int)
    (w : int) =
  if w >= nwords then -1
  else begin
    (* lanes equal to the needle become 0; the classic haszero mask sets
       the high lane bit of every zero lane (and, via borrows, possibly
       of lanes just above one) *)
    let x = meta.(fb + w) lxor needle in
    let m = (x - fp_low) land lnot x land fp_high in
    if m = 0 then fp_scan meta tags fb nwords needle line tb ways (w + 1)
    else begin
      let base = w * fp_lanes in
      (* [if]-form rather than [min]: polymorphic [min] is a generic
         compare call under classic ocamlopt, on the hottest path of the
         whole simulator. *)
      let d = ways - base in
      let limit = if d < fp_lanes then d else fp_lanes in
      match fp_confirm tags line m tb base limit 0 with
      | -1 -> fp_scan meta tags fb nwords needle line tb ways (w + 1)
      | way -> way
    end
  end

let[@inline] fp_probe t ~tb ~mb line ~fp =
  fp_scan t.meta t.tags (mb + m_fps) t.fp_words (fp * fp_low) line tb t.ways 0

(* The head (the way touched last) is checked before the fingerprint
   scan: a line is resident in at most one way, so it can only
   short-circuit to the scan's answer.  Pure, like [fp_probe]. *)
let[@inline] find_way t ~tb ~mb line ~fp =
  let head = t.meta.(mb + m_ends) lsr way_bits in
  if t.tags.(tb + head) = line then head else fp_probe t ~tb ~mb line ~fp

(* Make [way] the most recently used: unlink it and push it on the head.
   The head itself is already in place (always so in a 1-way set). *)
let[@inline] touch t ~tb ~mb way =
  let meta = t.meta in
  let ends = meta.(mb + m_ends) in
  let head = ends lsr way_bits in
  if way <> head then begin
    let link = t.link in
    let l = link.(tb + way) in
    (* not the head, so [prev] is a way *)
    let prev = l lsr way_bits and next = l land way_mask in
    link.(tb + prev) <- link.(tb + prev) land lnot way_mask lor next;
    let tail =
      if next = nil then prev
      else begin
        link.(tb + next) <-
          (prev lsl way_bits) lor (link.(tb + next) land way_mask);
        ends land way_mask
      end
    in
    link.(tb + way) <- (nil lsl way_bits) lor head;
    link.(tb + head) <- (way lsl way_bits) lor (link.(tb + head) land way_mask);
    meta.(mb + m_ends) <- (way lsl way_bits) lor tail
  end

(* Record way [way]'s fingerprint (or [fp_absent]) in the packed words. *)
let set_fp (meta : int array) ~mb way fp =
  let w = mb + m_fps + (way / fp_lanes) and sh = way mod fp_lanes * fp_shift in
  meta.(w) <- meta.(w) land lnot (fp_lane_mask lsl sh) lor (fp lsl sh)

type outcome = Hit | Miss | Prefetched_hit

let run_wb_push t entry =
  let n = t.run_wb_len in
  if n >= Array.length t.run_wb then begin
    let bigger = Array.make (2 * Array.length t.run_wb) 0 in
    Array.blit t.run_wb 0 bigger 0 n;
    t.run_wb <- bigger
  end;
  t.run_wb.(n) <- entry;
  t.run_wb_len <- n + 1

(* List set [s] (block at [mb]) for {!reset}.  Called once per set: the
   first time an install fills one of its empty ways. *)
let note_touched t s ~mb =
  t.meta.(mb + m_touched) <- 1;
  t.touched.(t.n_touched) <- s;
  t.n_touched <- t.n_touched + 1

(* Install [line] in set [s] at [tb]/[mb], evicting the LRU way (the
   list's tail), which then becomes the head.  Returns the way used; a
   dirty eviction is appended to the write-back buffer. *)
let install t s ~tb ~mb line ~fp ~write ~seq ~nvm =
  let meta = t.meta and tags = t.tags in
  let way = meta.(mb + m_ends) land way_mask in
  let bit = 1 lsl way in
  let dirty = meta.(mb + m_dirty) and seqw = meta.(mb + m_seqw) in
  let nvm_mask = meta.(mb + m_nvm) in
  let old = tags.(tb + way) in
  if old < 0 then begin
    if meta.(mb + m_touched) = 0 then note_touched t s ~mb
  end
  else if dirty land bit <> 0 then begin
    t.writebacks <- t.writebacks + 1;
    run_wb_push t
      ((if nvm_mask land bit <> 0 then 1 else 0)
      lor if seqw land bit <> 0 then 2 else 0)
  end;
  tags.(tb + way) <- line;
  set_fp meta ~mb way fp;
  meta.(mb + m_prefetched) <- meta.(mb + m_prefetched) land lnot bit;
  meta.(mb + m_dirty) <- (if write then dirty lor bit else dirty land lnot bit);
  meta.(mb + m_seqw) <-
    (if write && seq then seqw lor bit else seqw land lnot bit);
  meta.(mb + m_nvm) <-
    (if nvm then nvm_mask lor bit else nvm_mask land lnot bit);
  touch t ~tb ~mb way;
  way

(* One line of a run: lookup, and on a miss fill, with the LRU/dirty/
   prefetched transitions and counter increments of one demand access;
   evictions buffered. *)
let[@inline] run_line t h line ~write ~seq ~nvm =
  let fp = fp_of_hash h in
  let s = h land t.set_mask in
  let tb = s lsl t.wshift and mb = s lsl t.mshift in
  let way = find_way t ~tb ~mb line ~fp in
  if way >= 0 then begin
    touch t ~tb ~mb way;
    let meta = t.meta in
    let bit = 1 lsl way in
    if write then begin
      meta.(mb + m_dirty) <- meta.(mb + m_dirty) lor bit;
      if seq then meta.(mb + m_seqw) <- meta.(mb + m_seqw) lor bit
    end;
    let pf = meta.(mb + m_prefetched) in
    if pf land bit <> 0 then begin
      meta.(mb + m_prefetched) <- pf land lnot bit;
      t.prefetch_hits <- t.prefetch_hits + 1;
      Prefetched_hit
    end
    else begin
      t.hits <- t.hits + 1;
      Hit
    end
  end
  else begin
    t.misses <- t.misses + 1;
    ignore (install t s ~tb ~mb line ~fp ~write ~seq ~nvm : int);
    Miss
  end

(* [hash_line] stride for consecutive lines: [land max_int] is a mod-2^62
   mask and multiplication distributes over addition mod 2^63, so
   [hash_line (l + 1) = (hash_line l + 0x9E3779B1) land max_int]
   exactly — the walk steps the hash instead of remultiplying. *)
let hash_step = 0x9E3779B1

(** Walk the [lines] contiguous cache lines starting at [addr]: per-line
    lookup/fill as [lines] successive demand accesses, with dirty
    evictions appended to the write-back buffer (read with
    {!run_wb_count} / {!run_wb_nvm} / {!run_wb_seq}, valid until the
    next walk or prefetch).  Returns the FIRST line's outcome — the only
    one the latency charge depends on.  Allocation-free. *)
let access_run t addr ~lines ~write ~seq ~nvm =
  t.run_wb_len <- 0;
  let line = addr / line_bytes in
  let h = hash_line line in
  let first = run_line t h line ~write ~seq ~nvm in
  let hr = ref h and lr = ref line in
  for _ = 2 to lines do
    hr := (!hr + hash_step) land max_int;
    lr := !lr + 1;
    ignore (run_line t !hr !lr ~write ~seq ~nvm : outcome)
  done;
  first

let run_wb_count t = t.run_wb_len
let run_wb_nvm t i = t.run_wb.(i) land 1 <> 0
let run_wb_seq t i = t.run_wb.(i) land 2 <> 0

(** Insert a line ahead of use; the next demand access reports
    [Prefetched_hit].  Idempotent on resident lines.  Returns whether the
    line was actually fetched (false = already resident, no device
    traffic); any dirty eviction the insertion forced replaces the
    write-back buffer's contents.  Allocation-free. *)
let prefetch_q t addr ~nvm =
  t.run_wb_len <- 0;
  let line = addr / line_bytes in
  let h = hash_line line in
  let fp = fp_of_hash h in
  let s = h land t.set_mask in
  let tb = s lsl t.wshift and mb = s lsl t.mshift in
  t.prefetch_issued <- t.prefetch_issued + 1;
  let way = find_way t ~tb ~mb line ~fp in
  (* Already resident: re-mark so the consumer still sees the cheap path
     (prefetching a resident line costs nothing extra). *)
  let fetched = way < 0 in
  let way =
    if fetched then install t s ~tb ~mb line ~fp ~write:false ~seq:false ~nvm
    else way
  in
  t.meta.(mb + m_prefetched) <- t.meta.(mb + m_prefetched) lor (1 lsl way);
  fetched

(* Pure residency query: is the line containing [addr] resident and
   dirty?  Used by the crash model — dirty lines die with the cache, so
   an NVM address whose line sits dirty here has not reached the device.
   Touches no recency state ([fp_probe] mutates nothing), so querying
   is pure observation. *)
let line_dirty t addr =
  let line = addr / line_bytes in
  let h = hash_line line in
  let s = h land t.set_mask in
  let tb = s lsl t.wshift and mb = s lsl t.mshift in
  let way = fp_probe t ~tb ~mb line ~fp:(fp_of_hash h) in
  way >= 0 && t.meta.(mb + m_dirty) land (1 lsl way) <> 0

(* Only [install] moves a set out of its initial state: a probe of a
   pristine set finds nothing and mutates nothing (the head confirms
   against a [-1] tag, [touch] follows only a hit), and a hit needs an
   installed way.  So re-initialising the sets [install] listed restores
   the whole cache, in time proportional to the sets used, with no check
   on the probe path. *)
let reset t =
  for k = 0 to t.n_touched - 1 do
    init_set ~ways:t.ways ~wshift:t.wshift ~mshift:t.mshift
      ~fp_words:t.fp_words t.tags t.link t.meta t.touched.(k)
  done;
  t.n_touched <- 0;
  t.run_wb_len <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.prefetch_hits <- 0;
  t.prefetch_issued <- 0;
  t.writebacks <- 0

let hits t = t.hits
let misses t = t.misses
let prefetch_hits t = t.prefetch_hits
let prefetch_issued t = t.prefetch_issued
let writebacks t = t.writebacks
