(** Per-pause and accumulated GC statistics.  {!pause} is the one place
    a per-pause fact is counted; [Young_gc.publish] derives every metric,
    sample, span and log line from it.  A pause that raises produces no
    record, so it contributes neither to {!totals} nor to any counter. *)

type pause = {
  pause_ns : float;
  traverse_ns : float;  (** copy-and-traverse (read-mostly) sub-phase *)
  flush_ns : float;  (** write-only sub-phase *)
  cleanup_ns : float;
  objects_copied : int;
  bytes_copied : int;
  bytes_cached : int;  (** copied via the DRAM write cache *)
  bytes_direct : int;  (** copied straight to NVM *)
  refs_processed : int;
  header_map_installs : int;
  header_map_hits : int;
  header_map_fallbacks : int;
  header_map_occupancy : float;
  async_flushes : int;
  sync_flushes : int;
  steals : int;
  idle_ns : float;  (** summed thread idleness (spin + early finish) *)
  traffic : Memsim.Memory.snapshot;  (** bytes moved during the pause *)
  breakdown : float array;
      (** summed thread time indexed by [Evacuation.category_index] *)
}

val pause_ms : pause -> float
val nvm_bandwidth_mbps : pause -> float
(** Average NVM bandwidth consumed during the pause, MB/s. *)

type totals = {
  mutable pauses : int;
  mutable total_pause_ns : float;
  mutable max_pause_ns : float;
  mutable total_traverse_ns : float;
  mutable total_flush_ns : float;
  mutable objects_copied : int;
  mutable bytes_copied : int;
  mutable nvm_bytes : float;
  mutable weighted_bw_mbps : float;
  reservoir : Simstats.Percentile.reservoir;
}

val create_totals : unit -> totals

val reset_totals : totals -> unit
(** Back to the state of [create_totals]: no pauses, no samples. *)

val add : totals -> pause -> unit
(** Fold a pause into the totals; a pure fold that emits nothing. *)

val total_pause_s : totals -> float

val p50_pause_ns : totals -> float
(** Pause-duration percentiles over the reservoir of every recorded
    pause ([nan] before the first pause). *)

val p95_pause_ns : totals -> float
val p99_pause_ns : totals -> float
val p99_9_pause_ns : totals -> float

val pp_pause : Format.formatter -> pause -> unit
(** One-line summary of a pause (used by the console log sink). *)

val pp_percentiles : Format.formatter -> totals -> unit
(** Tail summary [p50/p95/p99/p99.9/max] in ms, for the JVM-style
    run-level log line and the CLI. *)

val avg_nvm_bandwidth_mbps : totals -> float
(** Pause-time-weighted average across pauses. *)
