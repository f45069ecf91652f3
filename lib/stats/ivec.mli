(** Resizable int arrays.

    The monomorphic sibling of {!Vec} for int payloads (addresses, object
    handles, packed slot ids, region indices).  The backing store is an
    annotated [int array], so a push or set is a bare store: a generic
    ['a array] store compiles to [caml_modify] even when the elements are
    ints.  Unused backing slots hold no value that matters, so {!clear}
    is O(1). *)

type t

val create : unit -> t
val length : t -> int

val clear : t -> unit

val clear_to : t -> capacity:int -> unit
(** {!clear}, and replace a backing array larger than [capacity] with one
    of that size, so a long-lived vector does not keep a large buffer. *)

val push : t -> int -> unit

val pop_or : t -> int -> int
(** [pop_or t none]: the last element, removed, or [none] when empty. *)

val get : t -> int -> int
val set : t -> int -> int -> unit

val unsafe_get : t -> int -> int
(** [get] without the logical-length check, for loops whose index is
    already known to be in [0, length). *)

val reverse_in_place : t -> unit

val shuffle : Prng.t -> t -> unit
(** In-place Fisher–Yates over the live prefix.  Consumes exactly the
    generator draws {!Prng.shuffle} (and {!Vec.shuffle}) would on an
    array of equal length. *)

val iter : (int -> unit) -> t -> unit
val to_array : t -> int array
