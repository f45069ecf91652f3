(** Canonical live-object graph capture for differential testing.

    Erases object placement: nodes are named by stable object id, fields
    and roots by the id of their referent.  Heaps built from the same
    seeded specification assign identical ids, so their post-collection
    captures under different {!Nvmgc.Gc_config} variants must be equal. *)

type field =
  | FNull
  | FLive of int  (** a live object, named by its stable id *)
  | FDangling of int  (** an address with no live binding — always a bug *)

type node = { id : int; size : int; fields : field array }
type root = { root_id : int; target : field }

type t = {
  nodes : node array;  (** every live binding, ascending id *)
  roots : root array;  (** mutator roots, ascending root id *)
}

val field_name : field -> string

val capture : Simheap.Heap.t -> t
(** Snapshot the heap's address table and roots as a canonical graph. *)

val capture_objects : Simheap.Heap.t -> Simheap.Objmodel.t array -> t
(** Like {!capture} over an explicit object set (roots empty) — the
    crash-recovery oracle's view of the objects surviving a simulated
    power failure.  Fields are classified through the full address
    table, so mid-pause dual bindings (old + new address of an evacuated
    object) resolve to the same id: the capture is placement-erased. *)

val diff : expected:t -> got:t -> string list
(** Human-readable mismatches ([] = graphs agree); capped with a
    suppression note when pathological. *)

val diff_heap : expected:t -> Simheap.Heap.t -> string list
(** [diff ~expected ~got:(capture heap)], without building the capture
    when the heap agrees with [expected]. *)

val equal : t -> t -> bool

val closed_within : pre:t -> t -> string list
(** Closed-subgraph violations ([] = every node of the subgraph appears
    in [pre] with the same size and placement-erased fields, and no
    field dangles).  [pre] may hold nodes the subgraph lost — that is
    what a crash does — but a surviving node may not differ from its
    pre-crash self.  Capped like {!diff}. *)
