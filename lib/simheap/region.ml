(** Heap regions: the basic memory-management unit of G1 (paper §2.1).

    A region is a fixed-size slab with a bump pointer.  Eden regions serve
    mutator allocation; survivor regions receive evacuated objects; old
    regions hold tenured data; cache regions are the DRAM staging area of
    the write cache (paper §3.2). *)

type kind = Free | Eden | Survivor | Old | Cache

type t = {
  idx : int;
  base : int;  (** base simulated address *)
  bytes : int;
  mutable space : Memsim.Access.space;
      (** backing device; reassigned with the kind by placement policy *)
  mutable kind : kind;
  mutable top : int;  (** bump offset from [base] *)
  objs : Simstats.Ivec.t;
      (** handles of the objects whose storage is (or originally was) in
          this region *)
  remset : Simstats.Ivec.t;
      (** field slots ({!Objmodel.field_slot}) outside the young space
          referencing this region *)
  mutable stolen_from : bool;
      (** work-stealing touched references bound for this region, which
          disables asynchronous flushing for it (paper §4.2) *)
  mutable in_cset : bool;
      (** member of the current collection set (young GC evacuates it) *)
}

let create ~idx ~base ~bytes ~space ~kind =
  {
    idx;
    base;
    bytes;
    space;
    kind;
    top = 0;
    objs = Simstats.Ivec.create ();
    remset = Simstats.Ivec.create ();
    stolen_from = false;
    in_cset = false;
  }

let kind_name = function
  | Free -> "free"
  | Eden -> "eden"
  | Survivor -> "survivor"
  | Old -> "old"
  | Cache -> "cache"

let free_bytes t = t.bytes - t.top

let used_bytes t = t.top

let is_full t = free_bytes t <= 0

(** Bump-allocate [size] bytes; [None] when the region cannot fit it. *)
(* [try_alloc] is the evacuation hot path's entry: one bump-allocation
   per copied object, so the failure case is an int sentinel rather than
   an option ([Some] would allocate per object). *)
let try_alloc t size =
  if size > free_bytes t then -1
  else begin
    let addr = t.base + t.top in
    t.top <- t.top + size;
    addr
  end

let alloc t size =
  let addr = try_alloc t size in
  if addr < 0 then None else Some addr

let contains t addr = addr >= t.base && addr < t.base + t.bytes

(** Reset to an empty free region (after reclamation). *)
let reset t =
  t.kind <- Free;
  t.top <- 0;
  t.stolen_from <- false;
  t.in_cset <- false;
  Simstats.Ivec.clear t.objs;
  Simstats.Ivec.clear t.remset
