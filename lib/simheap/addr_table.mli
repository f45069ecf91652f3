(** Open-addressing address→object table (see the implementation header
    for why [Hashtbl] was replaced on the evacuation hot path).  Keys must
    be strictly positive — heap addresses always are. *)

type t

val create : unit -> t
val length : t -> int

val find : t -> int -> int
(** Probe index of the binding, or [-1] when the address is unbound.
    Indices are invalidated by {!insert} and {!remove}. *)

val value : t -> int -> Objmodel.t
(** Value at a probe index returned by {!find}. *)

val probe_distance : t -> int -> int
(** Slots between a bound address and its home slot ([0] when it sits
    there), or [-1] when unbound.  A diagnostic of hash quality. *)

val insert : t -> int -> Objmodel.t -> unit
(** Bind (or rebind) an address. *)

val remove : t -> int -> unit
val iter : (int -> Objmodel.t -> unit) -> t -> unit
