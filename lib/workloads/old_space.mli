(** Old-space management for the workload driver: a persistent pool of
    holder objects whose fields carry old-to-young references (populating
    remembered sets), and costless recycling of promoted regions between
    cycles (standing in for the paper's rare mixed GCs). *)

type t

val create : Simheap.Heap.t -> t

val ensure_slots : t -> int -> unit
val reset_cycle : t -> unit
(** Null every holder field and rewind the slot cursor. *)

val take_slot : t -> int
(** Next free (holder, field-index) slot, packed by
    {!Simheap.Objmodel.field_slot}; grows the pool on demand. *)

val random_holder : t -> Simstats.Prng.t -> Simheap.Objmodel.t
(** A random holder, used as an old-space target of live-object fields. *)

val recycle : t -> keep_free:int -> unit
(** Release promoted old regions until at least [keep_free] regions are
    free, freeing their objects' storage.  Holder regions are never
    recycled. *)
