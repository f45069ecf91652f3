(** Per-GC-thread working stacks with work stealing (paper §2.1, §4.2).

    LIFO for the owner; thieves take a chunk from the opposite end, which
    breaks the LIFO order the asynchronous-flush tracker relies on — so
    stolen items' home regions are marked [stolen_from].

    Work items are stored structure-of-arrays: two parallel int arrays
    carry a packed {e slot id} and a {e home region index} per item, so
    push/pop/steal never allocate.  A field slot's id is
    {!Simheap.Objmodel.field_slot} of (holder handle, field); a root
    slot's id indexes a pause-local root registry.  No slot is pushed
    twice in one pause, so the flush tracker can match its memorized
    "last" reference by plain integer equality. *)

val no_home : int
(** Home sentinel (-1): the item's holder lives in no cache region
    (roots, remembered-set slots, direct-to-NVM copies). *)

val no_slot : int
(** Slot-id sentinel (-1): "no reference" (e.g. an unarmed tracker). *)

(** {2 Root registry}

    Pause-local registry resolving root slot ids back to roots.  Field
    slots need no registry: their id names the holder's store handle.
    All decode paths are allocation-free. *)

type pool

val create_pool : unit -> pool

val kept_capacity : int
(** Scratch buffers up to this many slots survive {!clear_pool} and
    {!reset}; larger ones are dropped for fresh small ones. *)

val clear_pool : pool -> unit
(** Forget every registered root (a new pause's pool). *)

val root_slot : pool -> Simheap.Objmodel.root -> int
(** Register a root; returns its (odd) slot id. *)

val slot_is_root : int -> bool

val slot_referent : pool -> Simheap.Objmodel.store -> int -> int
val slot_write : pool -> Simheap.Objmodel.store -> int -> int -> unit

val slot_addr : pool -> Simheap.Objmodel.store -> int -> int
(** Physical address of the slot's own storage (cached holders resolve
    to their DRAM copy). *)

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
