(** Host-time timer for benchmark drivers.

    A simulated clock has no effect on host time, so host seconds per
    unit of simulated work measure the simulator itself: they move only
    when the engine gets faster (or slower), never when the simulated
    machine does.  The performance ledger (bench/ledger) divides the
    work of each operation by the time this timer records. *)

type t = {
  mutable wall_s : float;  (** host wall-clock spent in timed calls *)
  mutable cpu_s : float;  (** host user-CPU spent in timed calls *)
}

let create () = { wall_s = 0.0; cpu_s = 0.0 }

(** Time [f], folding its host wall-clock and user-CPU into [t].  The
    user-CPU series (rusage, via [Unix.times]) is immune to scheduling
    noise — time the process spends descheduled on a shared host inflates
    wall but not CPU — so it is the series regression gates compare.
    Frequency drift still moves it; recorded baselines remain
    host-specific. *)
let timed t f =
  let c0 = (Unix.times ()).Unix.tms_utime in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  t.wall_s <- t.wall_s +. (Unix.gettimeofday () -. t0);
  t.cpu_s <- t.cpu_s +. ((Unix.times ()).Unix.tms_utime -. c0);
  v
