(** The simulated Java heap: a pool of regions plus object bookkeeping.

    The heap is pure data structure — it never charges memory costs; the
    GC and the mutator account their own accesses against {!Memsim.Memory}.
    This mirrors the paper's separation between the heap layout (regions,
    remembered sets) and the device behaviour underneath it.

    Placement: normally every heap region lives on [heap_space] (NVM when
    reproducing the paper's main configuration).  The [young_space]
    override implements the "young-gen-dram" comparison configuration of
    Figure 5, where DRAM serves allocation regions. *)

type config = {
  region_bytes : int;
  heap_regions : int;
  dram_scratch_regions : int;
      (** ceiling on simultaneously live DRAM cache regions *)
  heap_space : Memsim.Access.space;
  young_space : Memsim.Access.space option;
}

let default_config =
  {
    region_bytes = 1 lsl 20;
    heap_regions = 256;
    dram_scratch_regions = 64;
    heap_space = Memsim.Access.Nvm;
    young_space = None;
  }

type t = {
  config : config;
  heap_limit : int;  (** heap_base + heap_regions * region_bytes *)
  region_shift : int;
      (** log2 of region_bytes when it is a power of two (the default),
          -1 otherwise — [region_of_addr] runs several times per
          evacuated reference, and a shift beats a division *)
  regions : Region.t array;
  free : Simstats.Ivec.t;  (** indices of free heap regions *)
  scratch : Region.t array;
  scratch_free : Simstats.Ivec.t;
  store : Objmodel.store;  (** every object of this heap *)
  addr_map : Addr_table.t;  (** address -> handle *)
  roots : Objmodel.root Simstats.Vec.t;
  mutable next_obj_id : int;
  mutable next_root_id : int;
}

let dummy_root : Objmodel.root = { root_id = -1; target = Layout.null }

let fill_free_lists t =
  for i = t.config.heap_regions - 1 downto 0 do
    Simstats.Ivec.push t.free i
  done;
  for i = t.config.dram_scratch_regions - 1 downto 0 do
    Simstats.Ivec.push t.scratch_free i
  done

let create config =
  let region i =
    Region.create ~idx:i
      ~base:(Layout.heap_base + (i * config.region_bytes))
      ~bytes:config.region_bytes ~space:config.heap_space ~kind:Region.Free
  in
  let scratch i =
    Region.create ~idx:i
      ~base:(Layout.dram_scratch_base + (i * config.region_bytes))
      ~bytes:config.region_bytes ~space:Memsim.Access.Dram ~kind:Region.Free
  in
  let t =
    {
      config;
      heap_limit =
        Layout.heap_base + (config.heap_regions * config.region_bytes);
      region_shift =
        (let b = config.region_bytes in
         if b > 0 && b land (b - 1) = 0 then
           let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
           log2 b 0
         else -1);
      regions = Array.init config.heap_regions region;
      free = Simstats.Ivec.create ();
      scratch = Array.init config.dram_scratch_regions scratch;
      scratch_free = Simstats.Ivec.create ();
      store = Objmodel.create_store ~max_object_bytes:config.region_bytes;
      addr_map = Addr_table.create ();
      roots = Simstats.Vec.create dummy_root;
      next_obj_id = 0;
      next_root_id = 0;
    }
  in
  fill_free_lists t;
  t

(* Everything [create] sets, set again in place: regions empty, free and
   back on their configured space, both free lists in creation order, an
   empty object store handing out a fresh store's handles, the address
   table at its initial capacity, no roots and both id counters at zero.
   Only backing-array capacities survive, and no query sees those. *)
let reset t =
  Array.iter
    (fun (r : Region.t) ->
      Region.reset r;
      r.Region.space <- t.config.heap_space)
    t.regions;
  Array.iter
    (fun (r : Region.t) ->
      Region.reset r;
      r.Region.space <- Memsim.Access.Dram)
    t.scratch;
  Simstats.Ivec.clear t.free;
  Simstats.Ivec.clear t.scratch_free;
  fill_free_lists t;
  Objmodel.clear t.store;
  Addr_table.clear t.addr_map;
  Simstats.Vec.clear t.roots;
  t.next_obj_id <- 0;
  t.next_root_id <- 0

let config t = t.config

let store t = t.store

let region_bytes t = t.config.region_bytes

(** Device space old (tenured) regions are placed on. *)
let old_space t = t.config.heap_space

(** Device space young (eden/survivor) regions are placed on. *)
let young_space t =
  match t.config.young_space with
  | Some s -> s
  | None -> t.config.heap_space

let space_for t (kind : Region.kind) =
  match kind with
  | Region.Eden | Region.Survivor ->
      (* Both young spaces follow the young placement: in the paper's
         "young-gen-dram" comparison the extra DRAM serves the whole
         young generation, so survivors stay on DRAM until tenuring.
         (The write cache is a separate DRAM staging area, not a
         placement change — with the default NVM placement survivors are
         NVM regions.) *)
      young_space t
  | Region.Old -> t.config.heap_space
  | Region.Cache -> Memsim.Access.Dram
  | Region.Free -> t.config.heap_space

(** Take a free heap region and assign it a role.  [None] when the heap is
    exhausted. *)
let alloc_region t kind =
  match Simstats.Ivec.pop_or t.free (-1) with
  | -1 -> None
  | idx ->
      let r = t.regions.(idx) in
      assert (r.Region.kind = Region.Free);
      r.Region.kind <- kind;
      r.Region.space <- space_for t kind;
      Some r

(** Take a DRAM scratch region for the GC write cache. *)
let alloc_cache_region t =
  match Simstats.Ivec.pop_or t.scratch_free (-1) with
  | -1 -> None
  | idx ->
      let r = t.scratch.(idx) in
      r.Region.kind <- Region.Cache;
      Some r

let release_region t (r : Region.t) =
  Region.reset r;
  Simstats.Ivec.push t.free r.Region.idx

let release_cache_region t (r : Region.t) =
  Region.reset r;
  Simstats.Ivec.push t.scratch_free r.Region.idx

let free_regions t = Simstats.Ivec.length t.free
let free_cache_regions t = Simstats.Ivec.length t.scratch_free

let in_heap_range t addr = addr >= Layout.heap_base && addr < t.heap_limit

let region_of_addr t addr =
  if not (in_heap_range t addr) then
    invalid_arg "Heap.region_of_addr: address outside heap";
  let off = addr - Layout.heap_base in
  t.regions.(if t.region_shift >= 0 then off lsr t.region_shift
             else off / t.config.region_bytes)

let lookup t addr =
  let i = Addr_table.find t.addr_map addr in
  if i < 0 then None else Some (Addr_table.value t.addr_map i)

(* Allocation-free [lookup] for verification walks, which probe once per
   reference field of every live object: [Some] would allocate per probe. *)
let find t addr =
  let i = Addr_table.find t.addr_map addr in
  if i < 0 then Objmodel.none else Addr_table.value t.addr_map i

let lookup_exn t addr =
  let i = Addr_table.find t.addr_map addr in
  if i < 0 then invalid_arg "Heap.lookup_exn: unmapped address"
  else Addr_table.value t.addr_map i

let bind t addr obj = Addr_table.insert t.addr_map addr obj
let unbind t addr = Addr_table.remove t.addr_map addr

(** Allocate an object of [size] bytes with [nfields] (null) reference
    fields inside [region].  {!Objmodel.none} when the region is full. *)
let new_object t region ~size ~nfields =
  let addr = Region.try_alloc region size in
  if addr < 0 then Objmodel.none
  else begin
    let obj =
      Objmodel.alloc t.store ~id:t.next_obj_id ~addr ~size ~nfields
    in
    t.next_obj_id <- t.next_obj_id + 1;
    Simstats.Ivec.push region.Region.objs obj;
    bind t addr obj;
    obj
  end

let free_object t obj = Objmodel.free t.store obj

let new_root t target =
  let root : Objmodel.root = { root_id = t.next_root_id; target } in
  t.next_root_id <- t.next_root_id + 1;
  Simstats.Vec.push t.roots root;
  root

let roots t = t.roots

let clear_roots t = Simstats.Vec.clear t.roots

let iter_regions f t = Array.iter f t.regions

let iter_scratch_regions f t = Array.iter f t.scratch

let scratch_region t i = t.scratch.(i)

let scratch_regions t = t.config.dram_scratch_regions

let iter_bindings f t = Addr_table.iter f t.addr_map

(* Regions satisfying [p], in index order; built back to front so only
   the matching regions cost a list cell (every pause asks several times,
   and most regions of a small heap are free). *)
let regions_where p t =
  let acc = ref [] in
  for i = Array.length t.regions - 1 downto 0 do
    let r = t.regions.(i) in
    if p r then acc := r :: !acc
  done;
  !acc

let regions_of_kind t kind =
  regions_where (fun (r : Region.t) -> r.Region.kind = kind) t

let young_regions t =
  regions_where
    (fun (r : Region.t) ->
      match r.Region.kind with
      | Region.Eden | Region.Survivor -> true
      | Region.Free | Region.Old | Region.Cache -> false)
    t

let live_objects t = Addr_table.length t.addr_map
