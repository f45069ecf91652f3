(** The write cache: DRAM staging for survivor regions with a region
    mapping to their final NVM addresses (paper §3.2). *)

type pair = {
  cache : Simheap.Region.t;  (** DRAM staging region *)
  shadow : Simheap.Region.t;  (** NVM survivor region at the same offsets *)
  mutable filled : bool;
  mutable flushed : bool;
  mutable last : int;
      (** the Figure-4 "last" field used by {!Flush_tracker}: packed
          {!Work_stack} slot id, negative ({!Work_stack.no_slot}) when
          unarmed *)
}

type t

val create : Simheap.Heap.t -> limit_bytes:int option -> t
(** [limit_bytes = None] removes the upper bound ("sync-unlimited"). *)

val limit_bytes : t -> int option

val reset : t -> heap:Simheap.Heap.t -> unit
(** Empty the cache and bind it to [heap]: the state of
    [create heap ~limit_bytes] with the limit it was created with. *)

val new_pair : t -> pair option
(** Allocate a fresh (cache, shadow) pair; [None] once the cache budget
    or the DRAM scratch pool is exhausted — callers then copy directly to
    NVM survivor regions. *)

val alloc_in_pair : pair -> int -> (int * int) option
(** Bump-allocate; returns [(dram_addr, nvm_addr)] with equal offsets in
    both regions (the region mapping). *)

val alloc_addr : pair -> int -> int
(** Allocation-free [alloc_in_pair]: the DRAM address, or [-1] when the
    pair is full.  The NVM address is [dram_addr - cache.base +
    shadow.base].  The evacuation hot path calls this once per cached
    object, so the failure case must not box. *)

val mark_filled : pair -> unit
val record_direct_copy : t -> int -> unit

val complete_flush : t -> pair -> unit
(** Un-cache the pair's objects (their bytes are on NVM now) and release
    the DRAM region.  Memory-cost accounting is the caller's business. *)

val pairs : t -> pair Simstats.Vec.t
val allocated_bytes : t -> int
val direct_bytes : t -> int
val unflushed_pairs : t -> pair list
val limit_reached : t -> bool
