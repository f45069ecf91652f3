(** Fixed-width bucketed time series for bandwidth traces. *)

type t

val create : bucket_ns:float -> t
val bucket_ns : t -> float

val clear : t -> unit
(** Empty the series in place, keeping its bucket width and storage. *)

val add : t -> time_ns:float -> float -> unit
(** Add a value to the bucket containing the given instant. *)

val add_spread : t -> from_ns:float -> until_ns:float -> float -> unit
(** Distribute a value proportionally over the buckets spanned by the
    interval; degenerate intervals fall back to {!add}. *)

val length : t -> int
val get : t -> int -> float

val total : t -> float

val resample : t -> int -> float array
(** Average the series down to at most [n] points. *)
