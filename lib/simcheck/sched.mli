(** Seeded random schedules for the evacuation engine's scheduling seam. *)

val of_seed : int -> Nvmgc.Schedule.t
(** Expand a seed into a deterministic decision stream.  {!Fuzz}
    reserves seed 0: the differential campaign runs it with no schedule
    (the min-clock policy), the crash campaign under
    {!Nvmgc.Schedule.default}, since the crash seam only exists on the
    scheduled engine.  [of_seed 0] itself is still a valid schedule.  The destructive decisions are never taken; wrap with
    {!with_crash} or {!with_tamper} to inject one. *)

val with_crash : crash_step:int -> Nvmgc.Schedule.t -> Nvmgc.Schedule.t
(** Crash at crash point [crash_step] (and any later point, so the run
    dies at the first consultation >= the target even if the exact
    number is skipped).  Only the [crash] field is replaced; the base
    schedule's other decisions — and its PRNG stream — are untouched. *)

val counting : Nvmgc.Schedule.t -> Nvmgc.Schedule.t * (unit -> int)
(** Probe wrapper: never crashes, but records the highest crash-point
    number consulted.  Running a case once under [counting] tells the
    fuzzer how many crash points the run offers, so a real crash step
    can be drawn uniformly from that range. *)

(** Deliberate flush-protocol violations for mutation-testing the
    crash-recovery oracle. *)
type tamper =
  | Early_ready  (** arms {!Nvmgc.Schedule.t.flush_early} *)
  | Drop_flush  (** arms {!Nvmgc.Schedule.t.drop_flush} *)

val with_tamper : tamper -> Nvmgc.Schedule.t -> Nvmgc.Schedule.t
(** Inject the violation once per schedule value: the armed decision
    answers [true] at its first consultation and [false] after, so wrap
    afresh for every run.  Like {!with_crash} it replaces one field and
    draws no randomness. *)
