(** Continuous windowed traffic recorder on the simulated clock.

    The recorder answers "where did the bytes go, and when" for a run of
    the simulator: every memory-system access is attributed to a
    {!cause} (the subsystem that asked for it) and binned into fixed
    windows of simulated time, per space (DRAM/NVM) and direction
    (read/write).  Alongside the windowed series it keeps one exact
    running total per channel: contributions are integer-valued floats,
    so the per-cause totals sum {e exactly} to the aggregate
    [Memsim.Memory] byte counters (asserted in [test_recorder.ml]).

    A bounded flight ring of the most recent raw events is always
    retained; {!flight_dump} renders it when a verification or fuzz
    failure needs the last few milliseconds of memory-system history.

    Recording is pure observation: installing a recorder (via
    {!Hooks.set_recorder}) must never change simulated results. *)

(** Subsystem that caused a memory access. *)
type cause =
  | Mutator  (** mutator allocation / application traffic *)
  | Evac_copy  (** evacuation object copy (locate/read/write/forward) *)
  | Wc_writeback  (** write-cache write-back to NVM *)
  | Header_map  (** header-map probe/update traffic *)
  | Flush_pipe  (** flush pipeline (posted line write-backs, syncs) *)
  | Gc_other  (** other GC bookkeeping (cleanup, remset, scan) *)

val cause_count : int
val cause_index : cause -> int
val cause_name : cause -> string
val all_causes : cause list

val channel_count : int
(** [4 * cause_count]: (space, direction, cause) flattened. *)

val channel : nvm:bool -> write:bool -> cause -> int
val channel_name : int -> string

val live_bytes_track : string
(** Track name ["gc.live_bytes_evacuated"] used as the denominator of
    {!write_amplification}. *)

type t

val create : ?window_ns:float -> ?flight_events:int -> unit -> t
(** [create ()] makes an empty recorder with 1 ms windows and a
    4096-event flight ring.  Raises [Invalid_argument] unless
    [window_ns] is positive and finite. *)

val window_ns : t -> float

(** {1 Recording} *)

val traffic :
  t ->
  from_ns:float ->
  until_ns:float ->
  nvm:bool ->
  write:bool ->
  cause:cause ->
  bytes:float ->
  unit
(** Record [bytes] of traffic attributed to [cause], spread over
    [\[from_ns, until_ns\]] for the windowed series and added exactly to
    the channel's running total.  No-op when [bytes <= 0]. *)

val sample : t -> now_ns:float -> string -> float -> unit
(** Record a gauge-style observation (occupancy, queue depth, hit rate):
    per-window average plus last value. *)

val track : t -> now_ns:float -> string -> float -> unit
(** Record a cumulative-counter increment (e.g. live bytes evacuated):
    per-window sum plus exact running total. *)

(** {1 Reading} *)

val total : t -> nvm:bool -> write:bool -> cause -> float
val space_total : t -> nvm:bool -> write:bool -> float
val series : t -> nvm:bool -> write:bool -> cause -> Simstats.Timeseries.t
val track_total : t -> string -> float
val last_sample : t -> string -> float option

val windows : t -> int
(** Number of windows covered by the longest series. *)

val write_amplification : t -> float
(** NVM bytes written / live bytes evacuated; [nan] before the first
    evacuation. *)

val merge : into:t -> t -> unit
(** Merge a per-task recorder into a parent (deterministic: element-wise
    adds for series and totals, source-order replay for flight rings).
    Raises [Invalid_argument] on window mismatch. *)

(** {1 Exporters} *)

val to_csv : t -> string
(** Per-window rows (channels, tracks, sample averages) plus a final
    ["total"] row taken from the exact running accumulators. *)

val to_prometheus : t -> string
(** Prometheus-style text exposition
    ([nvmgc_traffic_bytes_total{space,dir,cause}], track totals, last
    samples, write amplification); values print with 17 significant
    digits so they round-trip to the exact floats. *)

val add_counter_tracks : t -> Tracer.t -> unit
(** Inject Chrome counter events (["ph":"C"]) into a tracer: one
    per-window stacked track per traffic group plus a cumulative
    write-amplification track. *)

val flight_dump : t -> string
(** Bounded human-readable dump of the flight ring: per-window channel
    byte sums for the most recent windows plus the latest samples. *)
