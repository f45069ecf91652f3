(** A binary min-heap of thread indices keyed on (clock, index): the
    min-clock engine's "which thread steps next".  The root is the index
    with the smallest key, ties going to the lowest index — exactly what
    a linear scan for the first strict minimum picks.

    Only the root's key may change between queries ({!set_top_key}, or
    {!pop} to drop it), which is the engine's single-writer shape: a step
    moves only the stepping thread's clock.  Keys must not be NaN, or
    the heap and the scan disagree.  Allocation-free after {!create}. *)

type t

val create : int -> t
(** An empty heap for indices [0 .. n - 1]. *)

val clear : t -> unit

val add : t -> int -> float -> unit
(** Insert an index not in the heap, with its key. *)

val is_empty : t -> bool

val top : t -> int
(** The index with the smallest (key, index); the heap must not be
    empty. *)

val set_top_key : t -> float -> unit
(** Give the root a new key (larger, smaller or equal) and restore the
    heap order. *)

val pop : t -> unit
(** Remove the root. *)
