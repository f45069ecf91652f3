(** Seeded heap-shape specifications: generation, instantiation on a
    fresh heap, shrinking, and reproducer pretty-printing.

    Instantiating the same specification twice yields identical object
    ids (the heap's id counter is deterministic), which is what makes
    cross-configuration differential comparison via {!Verify.Graph}
    possible. *)

type field_target =
  | Null
  | Young of int  (** index of another specified object *)
  | Old of int  (** index of an old-space holder object *)

type obj_spec = { size : int; fields : field_target array }

type anchor =
  | Root of int  (** mutator root targeting object [i] *)
  | Remset of int  (** old-region holder slot targeting object [i] *)

type t = { objects : obj_spec array; anchors : anchor array }

val region_bytes : int
(** Region size used by instantiated heaps (small, to exercise many
    region transitions per pause). *)

val min_size : int -> int
(** Smallest legal object size for a field count. *)

val generate : Simstats.Prng.t -> max_objects:int -> t
(** Random specification: cycles, self-references, sharing, old-space
    back-references, duplicate anchors and unreachable (garbage) objects
    all occur. *)

type instance = { heap : Simheap.Heap.t; objects : Simheap.Objmodel.t array;
                  holders : Simheap.Objmodel.t array }

val heap_config : t -> Simheap.Heap.config
(** The heap geometry {!instantiate} builds for the specification. *)

val instantiate : ?heap:Simheap.Heap.t -> t -> instance
(** Realize the specification on a fresh heap: old-space holder objects
    first, then the young objects in order (deterministic ids), then
    fields, roots and remembered-set entries.  With [heap], that heap is
    used instead of a created one: it must be as {!Simheap.Heap.create}
    or {!Simheap.Heap.reset} left it, with [heap_config spec] as its
    {!Simheap.Heap.config}.
    @raise Invalid_argument when [heap] visibly breaks either rule. *)

val shrink : check:(t -> bool) -> budget:int ref -> t -> t
(** Greedily minimize while [check] stays [true] ([check spec] must mean
    "the failure still reproduces on [spec]").  [budget] bounds [check]
    evaluations. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
