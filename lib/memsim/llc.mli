(** Set-associative last-level cache model with software-prefetch support
    and dirty-line write-back tracking. *)

val line_bytes : int

type t

type outcome = Hit | Miss | Prefetched_hit

val create : capacity_bytes:int -> ways:int -> t
(** Set count is rounded down to a power of two.  Makes a constant
    number of allocations whatever the set count: the state of all sets
    lives in flat int arrays (tags, the links of each set's LRU recency
    list, a metadata block per set — 8 words, one cache line, up to 14
    ways — and the touched-set list {!reset} walks), so a large cache
    costs a few major-heap blocks rather than several small blocks per
    set.  Replacement is exact LRU; a hit, a fill and the choice of a
    victim each cost O(1) whatever the way count.

    @raise Invalid_argument unless [1 <= ways <= 63]: each set keeps its
    per-way dirty, prefetched and write-back flags as bits of one native
    int. *)

val capacity_bytes : t -> int

val access_run :
  t -> int -> lines:int -> write:bool -> seq:bool -> nvm:bool -> outcome
(** Walk the [lines] contiguous cache lines starting at the given
    address: state transitions and counters identical to [lines]
    successive one-line demand accesses, with dirty evictions collected
    in the write-back buffer and the line hash stepped incrementally
    instead of recomputed.  Returns the {e first} line's outcome (the
    only one the latency charge depends on).  Query the buffered
    evictions with {!run_wb_count} / {!run_wb_nvm} / {!run_wb_seq}; they
    stay valid until the next walk or {!prefetch_q}.  Allocation-free
    after the buffer warms up. *)

val prefetch_q : t -> int -> nvm:bool -> bool
(** Software prefetch: inserts (or marks) the line so the next demand
    access reports [Prefetched_hit].  Returns whether the line was
    actually fetched (false = already resident, no device traffic).  A
    dirty eviction forced by the insertion (at most one) replaces the
    write-back buffer's contents, read as after {!access_run}.
    Allocation-free. *)

val run_wb_count : t -> int
val run_wb_nvm : t -> int -> bool
val run_wb_seq : t -> int -> bool

val line_dirty : t -> int -> bool
(** Pure residency query: the line containing the address is resident
    and dirty (its latest bytes live only in the cache).  Touches no LRU
    state — safe to call without perturbing the simulation. *)

val reset : t -> unit
(** Return the cache to the state {!create} left it in: no line resident,
    LRU order, write-back buffer and counters as new, so no
    query can tell the two apart.  Dirty lines are discarded, not written
    back.  Costs time proportional to the sets filled since creation or
    the previous reset, and allocates nothing. *)

val hits : t -> int
val misses : t -> int
val prefetch_hits : t -> int
val prefetch_issued : t -> int
val writebacks : t -> int
