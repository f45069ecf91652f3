(** The write cache: DRAM staging for survivor regions (paper §3.2).

    A GC thread that would copy a live object to an NVM survivor region
    instead copies it into a DRAM {e cache region}.  Each cache region is
    paired with an NVM {e shadow} survivor region at the same offsets, so
    the object's final NVM address is known immediately (the paper's
    "region mapping") and references can be updated with their permanent
    values while the bytes still sit in DRAM.

    Cache regions absorb (a) the object-copy writes and (b) the random
    reference updates into newly-copied objects.  They are written back to
    NVM sequentially — in a write-only sub-phase at the end of the pause
    (sync mode) or as soon as a region is ready (async mode, §4.2).

    The total cache size is bounded: once [limit_bytes] of cache regions
    have been taken, allocation falls back to copying directly into NVM
    survivor regions, exactly as the paper's upper-bound option does. *)

type pair = {
  cache : Simheap.Region.t;  (** DRAM staging region *)
  shadow : Simheap.Region.t;  (** NVM survivor region at the same offsets *)
  mutable filled : bool;  (** no further allocation will target this pair *)
  mutable flushed : bool;
  mutable last : int;
      (** the Figure-4 "last" field: packed {!Work_stack} slot id of the
          reference expected to be processed last among those targeting
          this pair; negative = unarmed *)
}

type t = {
  mutable heap : Simheap.Heap.t;
  limit_bytes : int option;
  mutable allocated_bytes : int;
  mutable exhausted : bool;
  pairs : pair Simstats.Vec.t;
}

let dummy_pair =
  let r =
    Simheap.Region.create ~idx:(-1) ~base:0 ~bytes:0 ~space:Memsim.Access.Dram
      ~kind:Simheap.Region.Free
  in
  { cache = r; shadow = r; filled = false; flushed = false; last = -1 }

let create heap ~limit_bytes =
  {
    heap;
    limit_bytes;
    allocated_bytes = 0;
    exhausted = false;
    pairs = Simstats.Vec.create dummy_pair;
  }

(* A new pause's cache, as [create heap ~limit_bytes] with the same
   limit: a collector keeps one write cache for all its pauses. *)
let reset t ~heap =
  t.heap <- heap;
  t.allocated_bytes <- 0;
  t.exhausted <- false;
  Simstats.Vec.clear t.pairs

let limit_reached t =
  match t.limit_bytes with
  | None -> false
  | Some limit -> t.allocated_bytes >= limit

(** Allocate a fresh (cache, shadow) pair.  [None] when the cache budget or
    the DRAM scratch pool is exhausted — the caller then copies directly
    into NVM survivor regions. *)
let new_pair t =
  if t.exhausted || limit_reached t then None
  else begin
    match Simheap.Heap.alloc_cache_region t.heap with
    | None ->
        t.exhausted <- true;
        None
    | Some cache -> begin
        match Simheap.Heap.alloc_region t.heap Simheap.Region.Survivor with
        | None ->
            Simheap.Heap.release_cache_region t.heap cache;
            t.exhausted <- true;
            None
        | Some shadow ->
            assert (cache.Simheap.Region.bytes = shadow.Simheap.Region.bytes);
            t.allocated_bytes <- t.allocated_bytes + cache.Simheap.Region.bytes;
            let pair =
              { cache; shadow; filled = false; flushed = false; last = -1 }
            in
            Simstats.Vec.push t.pairs pair;
            Some pair
      end
  end

(** Bump-allocate [size] bytes in a pair; keeps the cache and shadow tops
    in lockstep so DRAM offset = NVM offset.  Returns the DRAM address, or
    [-1] when the pair is full; the NVM address is [dram_addr -
    cache.base + shadow.base] (the region mapping).  Runs once per cached
    object copy, hence the int sentinel instead of an option. *)
let alloc_addr pair size =
  let dram_addr = Simheap.Region.try_alloc pair.cache size in
  if dram_addr < 0 then -1
  else begin
    let nvm_addr = Simheap.Region.try_alloc pair.shadow size in
    assert (nvm_addr >= 0 (* same geometry, same top *));
    assert (
      dram_addr - pair.cache.Simheap.Region.base
      = nvm_addr - pair.shadow.Simheap.Region.base);
    dram_addr
  end

let alloc_in_pair pair size =
  let dram_addr = alloc_addr pair size in
  if dram_addr < 0 then None
  else
    Some
      ( dram_addr,
        dram_addr - pair.cache.Simheap.Region.base
        + pair.shadow.Simheap.Region.base )

let mark_filled pair = pair.filled <- true

(** Un-cache every object of a pair after its bytes reach NVM, and release
    the DRAM region.  Memory-cost accounting is the caller's business. *)
let complete_flush t pair =
  assert (not pair.flushed);
  pair.flushed <- true;
  let st = Simheap.Heap.store t.heap in
  Simstats.Ivec.iter
    (fun o ->
      Simheap.Objmodel.set_cached st o false;
      Simheap.Objmodel.set_phys st o (Simheap.Objmodel.addr st o))
    pair.cache.Simheap.Region.objs;
  Simheap.Heap.release_cache_region t.heap pair.cache

let pairs t = t.pairs
let limit_bytes t = t.limit_bytes
let allocated_bytes t = t.allocated_bytes

let unflushed_pairs t =
  Simstats.Vec.fold_left
    (fun acc p -> if p.flushed then acc else p :: acc)
    [] t.pairs
  |> List.rev
