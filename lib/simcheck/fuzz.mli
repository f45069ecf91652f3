(** Deterministic fuzz campaigns: seeded heap shapes x schedule seeds x
    the configuration matrix, differentially compared through
    {!Verify.Graph} with verifier/oracle hooks armed, failures shrunk to
    minimal replayable reproducers. *)

type variant = { name : string; make : threads:int -> Nvmgc.Gc_config.t }

val all_variants : variant list
val variant_names : string list

val crash_variant_names : string list
(** The crash campaign's default matrix: the variants running the
    asynchronous flush pipeline, whose durability reports the recovery
    oracle checks. *)

val tampers : (string * Sched.tamper) list
(** CLI spelling of the one-shot protocol mutations ([--tamper]). *)

type case = {
  index : int;
  heap_seed : int;
  sched_seed : int;
  threads : int;
  spec : Spec.t;
}

val derive_case :
  index:int -> heap_seed:int -> sched_seed:int -> max_objects:int -> case
(** Expand a seed pair into a concrete case (thread count + heap spec). *)

val run_variant :
  ?tamper:(string -> Spec.instance -> unit) ->
  spec:Spec.t ->
  threads:int ->
  sched_seed:int ->
  variant ->
  (Verify.Graph.t * Nvmgc.Gc_stats.pause, string list) result
(** Instantiate the spec on a fresh heap, collect once under the variant
    (verification hooks armed; [sched_seed = 0] = min-clock engine) and
    capture the post-pause live graph.  [Error] carries verifier/oracle
    or evacuation failure messages.

    [tamper], a mutation-testing seam, runs after the pause and before
    the graph capture with the variant's name and its live instance —
    tests use it to corrupt one variant's heap and check the engine
    reports (and shrinks) the injected differential failure. *)

type failure = {
  case_index : int;
  heap_seed : int;
  sched_seed : int;
  threads : int;
  variant : string;  (** first variant that failed *)
  messages : string list;
  shrunk_spec : Spec.t;
  shrunk_threads : int;
  shrunk_sched_seed : int;
  shrunk_variant : string;
  shrunk_messages : string list;
  crash_step : int option;
      (** [Some] = crash-campaign failure: the crash point whose injected
          power failure the recovery oracle rejected *)
  shrunk_crash_step : int option;
      (** minimized crash step, valid against the shrunk reproducer *)
  flight_dump : string;
      (** flight-recorder dump of the shrunk reproducer: the last
          milliseconds of memory-system history before the failure,
          captured by re-running the reproducer with a private
          {!Nvmtrace.Recorder} installed *)
  tamper : Sched.tamper option;
      (** the protocol mutation armed when the failure was found and
          shrunk; the printed replay line re-arms it with [--tamper] *)
}

type variant_summary = {
  variant : string;
  pauses : Nvmgc.Gc_stats.pause list;  (** one per passing case, in order *)
}

type report = {
  seed : int;
  cases_requested : int;
  cases_run : int;
  variants_run : string list;
  crash : bool;  (** this report came from the crash-consistency campaign *)
  summaries : variant_summary list;
  failures : failure list;
}

val ok : report -> bool

val effective_jobs :
  cases:int -> variants:int -> max_objects:int -> int -> int
(** The job count {!run} will actually dispatch with: campaigns whose
    estimated work ([cases * variants * max_objects] object-pause units)
    is too small to amortize pool dispatch run serially regardless of
    the requested [jobs].  Pure; exposed for tests and reporting. *)

val run :
  ?jobs:int ->
  ?max_objects:int ->
  ?shrink_budget:int ->
  ?time_budget_s:float ->
  ?variants:string list ->
  ?tamper:(string -> Spec.instance -> unit) ->
  cases:int ->
  seed:int ->
  unit ->
  report
(** Run a campaign.  A campaign is a pure function of [seed] (plus the
    option arguments): rerunning it yields a structurally identical
    report.  [jobs] runs cases on a work-stealing domain pool (default 1
    = sequential); campaigns too small to amortize pool dispatch fall
    back to the submitting domain (see {!effective_jobs}).  Both case
    seeds are drawn serially before any case runs and the report is
    rebuilt in case order, so the report is identical at every job count
    (a failure still shrinks on the domain that found it).  [variants] filters the matrix by name ([] = all);
    [time_budget_s] stops scheduling new cases once exceeded (CPU
    seconds of the whole process, so a parallel campaign burns it up to
    [jobs] times faster); [shrink_budget] caps re-executions per failure
    during shrinking; [tamper] is threaded to {!run_variant}. *)

val replay :
  ?max_objects:int ->
  ?shrink_budget:int ->
  ?variants:string list ->
  ?tamper:(string -> Spec.instance -> unit) ->
  heap_seed:int ->
  sched_seed:int ->
  unit ->
  report
(** Re-run exactly one case from its printed [--seed]/[--schedule] pair. *)

val run_crash :
  ?jobs:int ->
  ?max_objects:int ->
  ?shrink_budget:int ->
  ?time_budget_s:float ->
  ?variants:string list ->
  ?crash_step:int ->
  ?tamper:Sched.tamper ->
  cases:int ->
  seed:int ->
  unit ->
  report
(** The crash-consistency campaign.  Per case and per variant (default
    {!crash_variant_names}): a probe run counts the case's crash points
    under a never-firing wrapper (and doubles as the verified sanity run
    feeding the summaries); then the case is killed once at a step drawn
    from a case-local PRNG and once at the final crash point (right
    after the last flush is reported durable), and each frozen image is
    held to the {!Recovery} obligations.  [crash_step] forces a single
    crash at that step instead (the replay path for printed
    reproducers).  [tamper] injects a protocol mutation once per run
    through the schedule seam ({!Sched.with_tamper}), for
    mutation-testing the oracle.
    Deterministic at every job count, like {!run}: seeds and crash
    steps are pure functions of [seed], and the report is rebuilt in
    case order.  Failures shrink over schedule -> threads -> crash step
    -> spec and print a replayable
    [--seed]/[--schedule]/[--crash-step] triple (plus [--tamper] when
    one is armed) with a flight dump. *)

val replay_crash :
  ?max_objects:int ->
  ?shrink_budget:int ->
  ?variants:string list ->
  ?crash_step:int ->
  ?tamper:Sched.tamper ->
  heap_seed:int ->
  sched_seed:int ->
  unit ->
  report
(** Re-run exactly one crash case from its printed
    [--seed]/[--schedule]/[--crash-step]/[--tamper] reproducer line. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_report : Format.formatter -> report -> unit
val report_to_string : report -> string
val failure_to_string : failure -> string

val write_repro_file : path:string -> report -> string
(** Write every failure's full reproducer (shrunk spec, messages, flight
    dump, replay line) to [path] — or, if [path] already exists, to the
    first free [path.N] so an earlier campaign's artifact is never
    clobbered.  Returns the path actually written. *)
