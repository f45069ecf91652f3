(** The simulated Java heap: region pool, object table, roots.

    Pure bookkeeping — memory costs are charged by the GC/mutator against
    {!Memsim.Memory}, not here. *)

type config = {
  region_bytes : int;
  heap_regions : int;
  dram_scratch_regions : int;
  heap_space : Memsim.Access.space;
  young_space : Memsim.Access.space option;
      (** placement override for eden regions ("young-gen-dram") *)
}

val default_config : config

type t

val create : config -> t

val reset : t -> unit
(** Return the heap to a state no query can tell apart from
    [create (config t)]: every region free, empty and on its configured
    space, the free lists in creation order, an empty object store, no
    bindings, no roots, and object and root ids counting from zero again.
    Handles of the previous life are freed (and will be reused). *)

val config : t -> config

val store : t -> Objmodel.store
(** The store every object of this heap lives in. *)

val region_bytes : t -> int
val young_space : t -> Memsim.Access.space
val old_space : t -> Memsim.Access.space

val alloc_region : t -> Region.kind -> Region.t option
(** Assign a free heap region a role (and the space the placement policy
    dictates); [None] when the heap is exhausted. *)

val alloc_cache_region : t -> Region.t option
(** Take a DRAM scratch region for the write cache. *)

val release_region : t -> Region.t -> unit
val release_cache_region : t -> Region.t -> unit
val free_regions : t -> int
val free_cache_regions : t -> int

val in_heap_range : t -> int -> bool
val region_of_addr : t -> int -> Region.t

val lookup : t -> int -> Objmodel.t option

val find : t -> int -> Objmodel.t
(** Allocation-free {!lookup}: {!Objmodel.none} when [addr] is unbound. *)

val lookup_exn : t -> int -> Objmodel.t
val bind : t -> int -> Objmodel.t -> unit
val unbind : t -> int -> unit

val new_object : t -> Region.t -> size:int -> nfields:int -> Objmodel.t
(** A fresh object bump-allocated in the region, listed there and bound
    at its address; {!Objmodel.none} when the region cannot fit it. *)

val free_object : t -> Objmodel.t -> unit
(** Return a dead object's storage to the store.  The caller has already
    unbound it, and drops it from every region list and slot. *)

val new_root : t -> int -> Objmodel.root
val roots : t -> Objmodel.root Simstats.Vec.t
val clear_roots : t -> unit

val iter_regions : (Region.t -> unit) -> t -> unit

val iter_scratch_regions : (Region.t -> unit) -> t -> unit
(** Iterate the DRAM scratch pool backing the GC write cache. *)

val scratch_regions : t -> int
(** Size of the DRAM scratch pool (free or not). *)

val scratch_region : t -> int -> Region.t
(** The scratch region with index [i].  Scratch regions are singleton
    records per index, so comparing indices is equivalent to comparing
    region identity — which is what lets work items carry their home
    cache region as a bare int. *)

val regions_of_kind : t -> Region.kind -> Region.t list
val young_regions : t -> Region.t list
val live_objects : t -> int

val iter_bindings : (int -> Objmodel.t -> unit) -> t -> unit
(** Iterate the address table: every (address, handle) binding. *)
