(** Reference oracle collector: a single-threaded semispace reachability
    copy (no write cache, header map, or stealing) over the pre-pause
    heap, diffed against the production engine's result.

    Usage: call {!snapshot} when the pause begins and {!diff} once
    {!Nvmgc.Young_gc.collect} has returned; {!Hooks} wires exactly
    this. *)

type snapshot

val snapshot : Nvmgc.Young_gc.t -> snapshot
(** Run the oracle collection over the live heap at the start of a pause,
    before any evacuation: the closure from the anchor set
    (collection-set remset slots + non-null roots) through young objects.
    Retains the young-id membership, each survivor's size and field
    classes, and each anchor's slot and class — no object is copied. *)

val diff : snapshot -> Nvmgc.Young_gc.t -> Nvmgc.Gc_stats.pause -> string list
(** Compare the post-pause heap and pause counters against the oracle's
    ground truth: surviving object set, sizes, per-field reference graph,
    anchor retargeting, and copy totals.  Empty list = exact match.  Does
    not modify the snapshot, so repeated calls return the same list. *)
