(** Host-wall-clock sampling profile over coarse phases (see the
    implementation header for the model and its accuracy caveats).

    Typical driver:
    {[
      Sys.set_signal Sys.sigprof
        (Sys.Signal_handle (fun _ -> Simstats.Hostprof.tick ()));
      ignore
        (Unix.setitimer Unix.ITIMER_PROF
           { Unix.it_interval = 0.001; it_value = 0.001 });
      (* ... run the workload ... *)
      Simstats.Hostprof.samples ()
    ]} *)

val register : string -> int
(** Allocate (or look up) a phase id for [name].  Phase 0 is the
    implicit "other" bucket. *)

val enter : int -> int
(** Switch the current phase; returns the previous phase for {!leave}.
    Two plain stores — safe in inner loops. *)

val leave : int -> unit
(** Restore the phase returned by the matching {!enter}. *)

val tick : unit -> unit
(** Attribute one sample to the current phase (call from the driver's
    timer-signal handler). *)

val reset : unit -> unit
val total : unit -> int

val samples : unit -> (string * int) list
(** Non-zero phases with their sample counts, descending. *)

val set_alloc_tracking : bool -> unit
(** Arm (or disarm) exact per-phase minor-allocation attribution: every
    phase switch then charges the words allocated since the last switch
    to the phase being left.  Deterministic — the noise-free signal for
    hot-path de-boxing work — but each switch pays a [Gc.minor_words]
    call, so leave it off for wall-clock measurements. *)

val alloc_samples : unit -> (string * float * int) list
(** [(phase, minor words, phase switches)] rows with any activity,
    descending by words.  Each switch itself allocates ~2 words (the
    boxed [Gc.minor_words] result), charged to the phase being left —
    subtract [2 * switches] for a self-overhead-free reading. *)
