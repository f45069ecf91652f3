(** Simulated Java objects, reference slots and roots.

    An object is an immediate int {e handle} into a flat int {!store}: its
    id, addresses, size, forwarding word, age, cached bit and reference
    fields are words of one block in an annotated [int array], so the host
    GC never promotes, marks or write-barriers a simulated object.  Every
    accessor takes the store, which the owning {!Heap} hands out. *)

type t = int
(** A handle: the offset of the object's block in its store.  Handles are
    recycled once freed, so they are not ids — {!id} is. *)

val none : t
(** The "no object" handle (-1), returned by allocation-free lookups. *)

(** {2 The store} *)

type store

val create_store : max_object_bytes:int -> store
(** An empty store whose objects may be up to [max_object_bytes] bytes: its
    chunks are large enough for one.  A heap passes its region size. *)

val alloc : store -> id:int -> addr:int -> size:int -> nfields:int -> t
(** A block for a fresh object: not forwarded, not cached, age 0, [phys =
    addr], every field {!Layout.null}.  Reuses the most recently freed
    block with the same field count, if any.  Requires
    [size >= header + 8 * nfields] and a block that fits one chunk. *)

val free : store -> t -> unit
(** Return a live object's block to its free list.  The handle must no
    longer be bound, listed in a region or reachable from a slot. *)

val clear : store -> unit
(** Free everything at once: the store hands out the handles of a fresh
    one again.  Proportional to the number of field-count classes used,
    not to the capacity; the chunks are kept for reuse. *)

val live : store -> int
(** Objects allocated and not freed. *)

val capacity : store -> int
(** Blocks carved so far (live or on a free list): the store's size in
    objects.  Recycling keeps it near the peak live count. *)

val chunk_words : store -> int
(** Words per chunk: a power of two, at least 4,096 and enough for the
    largest object.  Every chunk is allocated at this size. *)

val is_live : store -> t -> bool
(** Whether [h] names a carved, unfreed block.  Reads no word outside the
    store for any [h], and is false for every handle in a chunk tail that
    allocation skipped; a handle inside a block is not checked. *)

(** {2 Objects} *)

val id : store -> t -> int
val addr : store -> t -> int
(** Current official heap address. *)

val set_addr : store -> t -> int -> unit

val phys : store -> t -> int
(** Where the bytes physically are now; differs from {!addr} while the
    object sits in a DRAM write-cache region. *)

val set_phys : store -> t -> int -> unit

val size : store -> t -> int
(** Total bytes including header and fields. *)

val forward : store -> t -> int
(** Forwarding pointer installed in the old copy's header; {!Layout.null}
    when not forwarded. *)

val set_forward : store -> t -> int -> unit
val cached : store -> t -> bool
val set_cached : store -> t -> bool -> unit
val age : store -> t -> int
val set_age : store -> t -> int -> unit
val nfields : store -> t -> int

val field : store -> t -> int -> int
(** Referent address of field [i]; {!Layout.null} = null. *)

val set_field : store -> t -> int -> int -> unit

val is_array : store -> t -> bool
(** No reference fields but a payload: a primitive array. *)

val primitive_bytes : store -> t -> int
val field_addr : store -> t -> int -> int
(** Field address within the official address. *)

val field_phys_addr : store -> t -> int -> int
(** Field address within the physical storage (DRAM while cached). *)

(** {2 Field slots}

    A reference field packed into one int:
    [(holder lsl (field_bits + 1)) lor (field lsl 1)].  The low bit is
    clear, which leaves odd ints to {!Nvmgc.Work_stack}'s root slots.
    Remembered-set entries are field slots. *)

val max_fields : int
(** Upper bound (exclusive) on encodable field indices — far above any
    region-bounded object's field count. *)

val field_slot : t -> int -> int
val slot_holder : int -> t
val slot_field : int -> int
val slot_referent : store -> int -> int
val slot_write : store -> int -> int -> unit

val slot_addr : store -> int -> int
(** Physical address of the field's own storage (for write accounting). *)

(** {2 Roots} *)

(** A mutator root slot, living in the dedicated DRAM root range. *)
type root = { root_id : int; mutable target : int }

val root_addr : root -> int
