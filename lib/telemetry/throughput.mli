(** Host-time timer for benchmark drivers: the wall-clock and user-CPU
    seconds a measured call spends.  Host time of the {e simulator} — it
    moves only when the engine gets faster, never when the simulated
    machine does.  The performance ledger (bench/ledger) times every
    operation with it; see DESIGN.md §11 for the metrics built on it and
    EXPERIMENTS.md for the recorded numbers. *)

type t = {
  mutable wall_s : float;  (** host wall-clock spent in timed calls *)
  mutable cpu_s : float;  (** host user-CPU spent in timed calls *)
}

val create : unit -> t

val timed : t -> (unit -> 'a) -> 'a
(** Run [f], adding its host wall-clock to [wall_s] and its user-CPU
    (rusage series, via [Unix.times]) to [cpu_s]. *)
