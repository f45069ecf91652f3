(** Per-GC-thread working stacks with work stealing (paper §2.1, §4.2).

    LIFO for the owner; thieves take a chunk from the opposite end, which
    breaks the LIFO order the asynchronous-flush tracker relies on — so
    stolen items' home regions are marked [stolen_from].

    Work items are stored structure-of-arrays: two parallel int vectors
    carry a packed {e slot id} and a {e home region index} per item, so
    push/pop/steal never allocate.  Slot ids index a pause-local
    {!pool} that registers each holder object (or root) once; every id
    pushed during a pause is distinct, so the flush tracker can match
    its memorized "last" reference by plain integer equality. *)

val no_home : int
(** Home sentinel (-1): the item's holder lives in no cache region
    (roots, remembered-set slots, direct-to-NVM copies). *)

val no_slot : int
(** Slot-id sentinel (-1): "no reference" (e.g. an unarmed tracker). *)

(** {2 Slot pool}

    Pause-local registry resolving packed slot ids back to object
    fields and roots.  Field slots encode [(holder_idx, field)] in one
    int; root slots encode a root registry index.  All decode paths are
    allocation-free. *)

type pool

val create_pool : unit -> pool

val kept_capacity : int
(** Scratch buffers up to this many slots survive {!clear_pool} and
    {!reset}; larger ones are dropped for fresh small ones. *)

val clear_pool : pool -> unit
(** Forget every registered holder and root (a new pause's pool). *)

val register_holder : pool -> Simheap.Objmodel.t -> int
(** Register a holder object whose fields are about to be pushed;
    returns the holder index to feed {!field_slot}. *)

val field_slot : holder:int -> field:int -> int
(** Packed slot id for field [field] of registered holder [holder].
    [field] must be below {!max_fields}. *)

val max_fields : int
(** Upper bound (exclusive) on encodable field indices — far above any
    region-bounded object's field count. *)

val register_slot : pool -> Simheap.Objmodel.slot -> int
(** Packed id for an arbitrary slot (seeding path; not hot). *)

val slot_is_root : int -> bool
val slot_referent : pool -> int -> int
val slot_write : pool -> int -> int -> unit

val slot_addr : pool -> int -> int
(** Physical address of the slot's own storage (cached holders resolve
    to their DRAM copy). *)

val slot_holder : pool -> int -> Simheap.Objmodel.t
(** Holder object of a field slot.  Must not be called on root slots. *)

(** {2 Stacks} *)

type t

val create : unit -> t

val reset : t -> unit
(** Empty the stack and zero its counters and push clock, as {!create}
    leaves it. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> clock:float -> slot:int -> home:int -> unit
(** [clock] is the simulated push instant; thieves synchronize to it.
    [home] is the cache-region index of the slot's holder, or
    {!no_home}. *)

val pop_nonempty : t -> int
(** Owner-end pop (LIFO): returns the popped slot id and latches its
    home for {!popped_home}.  On an empty stack it returns {!no_slot}
    and still counts a pop — hot loops already guard on {!is_empty}, so
    no bounds branch is duplicated here. *)

val popped_home : t -> int
(** Home index of the item returned by the last {!pop_nonempty}. *)

val pop : t -> (int * int) option
(** Owner-end pop returning [(slot, home)]; allocates — test/tooling
    convenience, not for the traversal loops. *)

val steal_into : t -> thief:t -> chunk:int -> clock:float ->
  mark_home:(int -> unit) -> int
(** Move up to [chunk] items from the bottom (oldest end) of the victim
    onto [thief] in push order, calling [mark_home] with each moved
    item's home index (sentinels skipped) so callers can mark the
    region stolen-from.  [clock] stamps the thief's pushes.  Returns
    the number of items moved.  Counter semantics match pushing each
    stolen item individually: the thief's push count grows by the
    result, the victim's stolen-from count likewise. *)

val pushes : t -> int
val pops : t -> int
val stolen_from_count : t -> int
val last_push_clock : t -> float
