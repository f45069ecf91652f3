(** The instrumentation points the collector calls.

    Like {!Verify}'s hooks, this is a registration interface: the core
    library emits into whatever tracer/metrics registry the driver
    installed, and emits into nothing — at the cost of one load and
    compare per call site — when none is installed.  Installing or
    removing a sink can never change simulated results: every emitter is
    pure observation (enforced by a determinism test), and no emitter
    allocates when nothing is installed (enforced by an allocation test).

    Where the collector emits: an event with its own timestamp is
    emitted where it happens; every count and per-pause figure (metric
    counters, histograms and gauges, recorder samples, the lane-0 spans,
    the console lines) is derived from the pause record, once per
    completed pause, in [Young_gc.publish].

    Event taxonomy (lanes are {!Tracer}'s: 0 = pause, [tid+1] = GC
    thread [tid]):

    - spans ["pause"], ["prologue"], ["traverse"], ["write-back"],
      ["cleanup"] on lane 0 — the pause and its sub-phases;
    - span ["evacuate"] per GC-thread lane — that thread's
      copy-and-traverse work including termination spinning;
    - instants ["steal"], ["hm-fallback"], ["region-grab"],
      ["flush-start"], ["flush-complete"] on GC-thread lanes.

    Installations are {e per-domain} ({!Domain.DLS}): a spawned domain
    starts with no tracer and no registry, and [set_tracer]/[set_metrics]
    affect only the calling domain.  Parallel drivers install fresh
    per-task sinks on the worker domain and merge them into the parent
    scope at join time ({!Tracer.append}, {!Metrics.merge}) in task
    submission order, which keeps serialized output independent of the
    worker count. *)

type scope = {
  tracer : Tracer.t option;
  metrics : Metrics.t option;
  recorder : Recorder.t option;
}
(** One domain's complete installation. *)

val ambient : unit -> scope
(** The calling domain's installation (both slots [None] initially). *)

val set_ambient : scope -> unit
(** Replace the calling domain's installation wholesale — the
    save/install/restore primitive for scoped per-task sinks. *)

val set_tracer : Tracer.t option -> unit
val tracer : unit -> Tracer.t option

val tracing : unit -> bool
(** True iff a tracer is installed.  Call sites that build argument
    lists should guard on this to keep the disabled path allocation-free. *)

val set_metrics : Metrics.t option -> unit
val metrics : unit -> Metrics.t option
val set_recorder : Recorder.t option -> unit
val recorder : unit -> Recorder.t option

val recording : unit -> bool
(** True iff a recorder is installed.  Traffic call sites guard on this
    so the disabled path stays free of float boxing. *)

val span :
  lane:int ->
  name:string ->
  start_ns:float ->
  end_ns:float ->
  ?args:(string * Tracer.arg) list ->
  unit ->
  unit

val instant :
  lane:int ->
  name:string ->
  ts_ns:float ->
  ?args:(string * Tracer.arg) list ->
  unit ->
  unit

val lane_name : lane:int -> string -> unit

val count : by:int -> string -> unit
(** Add [by] to a named counter in the installed registry (no-op
    otherwise).  [by] is not optional: an optional argument would box
    [Some by] at every call site, installed registry or not. *)

val observe : string -> float -> unit
(** Record into a named histogram in the installed registry. *)

val gauge : string -> float -> unit

val sample : now_ns:float -> string -> float -> unit
(** Gauge-style recorder observation (no-op when no recorder). *)

val track : now_ns:float -> string -> float -> unit
(** Cumulative recorder counter increment (no-op when no recorder). *)
