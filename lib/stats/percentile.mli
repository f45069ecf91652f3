(** Percentiles and a simple sample reservoir for tail-latency statistics. *)

val of_sorted : float array -> float -> float
(** [of_sorted a p] is the [p]-quantile ([0 <= p <= 1]) of the sorted array
    [a], with linear interpolation.  Raises on an empty array. *)

val of_unsorted : float array -> float -> float
(** Like {!of_sorted} but sorts a copy first. *)

type reservoir

val create_reservoir : unit -> reservoir
val clear_reservoir : reservoir -> unit
(** Drop every sample, as [create_reservoir] leaves it. *)

val add : reservoir -> float -> unit
val count : reservoir -> int

val quantile : reservoir -> float -> float
(** [nan] when empty. *)

val p50 : reservoir -> float
val p95 : reservoir -> float
val p99 : reservoir -> float
val p99_9 : reservoir -> float
val max_sample : reservoir -> float
val mean : reservoir -> float
