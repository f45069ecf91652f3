(** Resizable arrays (OCaml 5.1 has no [Dynarray]).

    A ['a t] is a growable array with amortised O(1) [push]/[pop] at the
    back and O(1) random access.  The [dummy] element passed at creation
    fills unused backing slots so stale references never leak. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create ?capacity dummy] makes an empty vector.  [dummy] is stored in
    unused slots and returned by nothing. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Remove all elements, releasing them for GC. *)

val clear_to : 'a t -> capacity:int -> unit
(** {!clear}, and replace a backing array larger than [capacity] with one
    of that size, so a long-lived vector does not keep a large buffer. *)

val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
val pop_exn : 'a t -> 'a

val pop_or_dummy : 'a t -> 'a
(** Allocation-free [pop] for hot loops: returns the dummy when empty
    instead of wrapping the element in an option.  Callers must check
    {!is_empty} first if the dummy is a storable value. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val unsafe_get : 'a t -> int -> 'a
(** [get] without the logical-length check, for hot loops whose index is
    already known to be in [0, length).  With the library's [-unsafe]
    build flags this compiles to a bare load. *)

val reverse_in_place : 'a t -> unit
(** Reverse the live prefix in place. *)

val shuffle : Prng.t -> 'a t -> unit
(** In-place Fisher–Yates over the live prefix.  Consumes exactly the
    generator draws {!Prng.shuffle} would on an array of equal length. *)

val take_front : 'a t -> int -> 'a list
(** [take_front t n] removes up to [n] elements from the front (oldest end)
    and returns them in insertion order.  Complements [pop], which works on
    the back — together they model a work-stealing deque. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a -> 'a list -> 'a t
val last : 'a t -> 'a option
