(** Heap regions: G1's basic memory-management unit (paper §2.1). *)

type kind = Free | Eden | Survivor | Old | Cache

type t = {
  idx : int;
  base : int;
  bytes : int;
  mutable space : Memsim.Access.space;
  mutable kind : kind;
  mutable top : int;
  objs : Simstats.Ivec.t;
      (** handles of the objects whose storage is (or originally was) in
          this region *)
  remset : Simstats.Ivec.t;
      (** field slots ({!Objmodel.field_slot}) outside the young space
          referencing this region *)
  mutable stolen_from : bool;
      (** stealing touched references homed here: no asynchronous flush *)
  mutable in_cset : bool;
}

val create :
  idx:int ->
  base:int ->
  bytes:int ->
  space:Memsim.Access.space ->
  kind:kind ->
  t

val kind_name : kind -> string
val free_bytes : t -> int
val used_bytes : t -> int
val is_full : t -> bool

val alloc : t -> int -> int option
(** Bump-allocate; [None] when the region cannot fit the request. *)

val try_alloc : t -> int -> int
(** Allocation-free [alloc]: the address, or [-1] when the region cannot
    fit the request.  The evacuation engine bump-allocates once per
    copied object, so its failure case must not box an option. *)

val contains : t -> int -> bool
val reset : t -> unit
(** Back to an empty free region. *)
