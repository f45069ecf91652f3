(** Domain-scoped telemetry registration points (taxonomy and cost
    contract in the interface).

    The installed tracer/metrics pair is {!Domain.DLS} state: each domain
    sees only its own installation, so parallel sweep workers can record
    into private per-task sinks that the driver merges deterministically
    at join time (see [Experiments.Runner.parallel_map]).  A freshly
    spawned domain starts with nothing installed. *)

type scope = {
  tracer : Tracer.t option;
  metrics : Metrics.t option;
  recorder : Recorder.t option;
}

let empty = { tracer = None; metrics = None; recorder = None }

let scope_key : scope Domain.DLS.key = Domain.DLS.new_key (fun () -> empty)

let is_empty s = s.tracer = None && s.metrics = None && s.recorder = None

(* How many domains hold a non-empty scope.  Every emitter starts with
   [ambient ()], so while nothing is installed anywhere (every sweep and
   campaign that runs without telemetry) one atomic load replaces the
   [Domain.DLS.get].  Per-domain semantics are kept: a domain's own
   [set_ambient] of a non-empty scope increments the count before it
   returns, so that domain never reads the count as zero while its own
   scope is non-empty. *)
let nonempty_scopes = Atomic.make 0

let ambient () =
  if Atomic.get nonempty_scopes = 0 then empty else Domain.DLS.get scope_key

let set_ambient s =
  let was_empty = is_empty (Domain.DLS.get scope_key) in
  let now_empty = is_empty s in
  if was_empty && not now_empty then Atomic.incr nonempty_scopes;
  Domain.DLS.set scope_key s;
  if now_empty && not was_empty then Atomic.decr nonempty_scopes

let set_tracer t = set_ambient { (ambient ()) with tracer = t }
let tracer () = (ambient ()).tracer
let tracing () = (ambient ()).tracer <> None
let set_metrics m = set_ambient { (ambient ()) with metrics = m }
let metrics () = (ambient ()).metrics
let set_recorder r = set_ambient { (ambient ()) with recorder = r }
let recorder () = (ambient ()).recorder
let recording () = (ambient ()).recorder <> None

let span ~lane ~name ~start_ns ~end_ns ?args () =
  match (ambient ()).tracer with
  | None -> ()
  | Some t -> Tracer.span t ~lane ~name ~start_ns ~end_ns ?args ()

let instant ~lane ~name ~ts_ns ?args () =
  match (ambient ()).tracer with
  | None -> ()
  | Some t -> Tracer.instant t ~lane ~name ~ts_ns ?args ()

let lane_name ~lane name =
  match (ambient ()).tracer with
  | None -> ()
  | Some t -> Tracer.set_lane_name t ~lane name

let count ~by name =
  match (ambient ()).metrics with
  | None -> ()
  | Some m -> Metrics.incr m ~by name

let observe name v =
  match (ambient ()).metrics with
  | None -> ()
  | Some m -> Metrics.observe m name v

let gauge name v =
  match (ambient ()).metrics with
  | None -> ()
  | Some m -> Metrics.set_gauge m name v

let traffic ~from_ns ~until_ns ~nvm ~write ~cause ~bytes =
  match (ambient ()).recorder with
  | None -> ()
  | Some r -> Recorder.traffic r ~from_ns ~until_ns ~nvm ~write ~cause ~bytes

let sample ~now_ns name v =
  match (ambient ()).recorder with
  | None -> ()
  | Some r -> Recorder.sample r ~now_ns name v

let track ~now_ns name v =
  match (ambient ()).recorder with
  | None -> ()
  | Some r -> Recorder.track r ~now_ns name v
