(** Per-pause and accumulated GC statistics.

    The experiments read everything they report from here: pause durations
    and sub-phase breakdown (read-mostly vs write-only), copy volumes,
    header-map behaviour, flush counts, stealing, idleness, and the memory
    traffic the pause generated (from {!Memsim.Memory} snapshots). *)

type pause = {
  pause_ns : float;  (** full stop-the-world duration *)
  traverse_ns : float;  (** copy-and-traverse (read-mostly) sub-phase *)
  flush_ns : float;  (** write-only sub-phase (0 without write cache) *)
  cleanup_ns : float;  (** header-map clearing + region bookkeeping *)
  objects_copied : int;
  bytes_copied : int;
  bytes_cached : int;  (** copied via DRAM write cache *)
  bytes_direct : int;  (** copied straight to NVM (cache full/disabled) *)
  refs_processed : int;
  header_map_installs : int;
  header_map_hits : int;
  header_map_fallbacks : int;  (** puts that overflowed to the NVM header *)
  header_map_occupancy : float;
  async_flushes : int;
  sync_flushes : int;
  steals : int;
  idle_ns : float;  (** summed over threads: pause end minus own finish *)
  traffic : Memsim.Memory.snapshot;  (** bytes moved during the pause *)
  breakdown : float array;
      (** summed thread time by {!Evacuation.category} (indexed by
          [Evacuation.category_index]) — the §3.1 step analysis *)
}

let pause_ms p = p.pause_ns /. 1e6

(** Average NVM bandwidth consumed during the pause, MB/s. *)
let nvm_bandwidth_mbps p =
  if p.pause_ns <= 0.0 then 0.0
  else begin
    let bytes =
      p.traffic.Memsim.Memory.nvm_read_bytes
      +. p.traffic.Memsim.Memory.nvm_write_bytes
    in
    bytes /. 1e6 /. (p.pause_ns /. 1e9)
  end

let nvm_read_bandwidth_mbps p =
  if p.pause_ns <= 0.0 then 0.0
  else p.traffic.Memsim.Memory.nvm_read_bytes /. 1e6 /. (p.pause_ns /. 1e9)

let nvm_write_bandwidth_mbps p =
  if p.pause_ns <= 0.0 then 0.0
  else p.traffic.Memsim.Memory.nvm_write_bytes /. 1e6 /. (p.pause_ns /. 1e9)

(** Accumulated statistics over a run (a sequence of pauses). *)
type totals = {
  mutable pauses : int;
  mutable total_pause_ns : float;
  mutable max_pause_ns : float;
  mutable total_traverse_ns : float;
  mutable total_flush_ns : float;
  mutable objects_copied : int;
  mutable bytes_copied : int;
  mutable nvm_bytes : float;
  mutable weighted_bw_mbps : float;  (** pause-time-weighted NVM bandwidth *)
  reservoir : Simstats.Percentile.reservoir;
}

let create_totals () =
  {
    pauses = 0;
    total_pause_ns = 0.0;
    max_pause_ns = 0.0;
    total_traverse_ns = 0.0;
    total_flush_ns = 0.0;
    objects_copied = 0;
    bytes_copied = 0;
    nvm_bytes = 0.0;
    weighted_bw_mbps = 0.0;
    reservoir = Simstats.Percentile.create_reservoir ();
  }

let reset_totals t =
  t.pauses <- 0;
  t.total_pause_ns <- 0.0;
  t.max_pause_ns <- 0.0;
  t.total_traverse_ns <- 0.0;
  t.total_flush_ns <- 0.0;
  t.objects_copied <- 0;
  t.bytes_copied <- 0;
  t.nvm_bytes <- 0.0;
  t.weighted_bw_mbps <- 0.0;
  Simstats.Percentile.clear_reservoir t.reservoir

(* Feed the telemetry metrics registry (no-ops when none is installed).
   Durations are histogrammed in ns, traffic in bytes, so the §3.1-style
   distributions can be read straight out of a --metrics dump. *)
let feed_metrics p =
  Nvmtrace.Hooks.count ~by:1 "gc.pauses";
  Nvmtrace.Hooks.observe "gc.pause_ns" p.pause_ns;
  Nvmtrace.Hooks.observe "gc.traverse_ns" p.traverse_ns;
  Nvmtrace.Hooks.observe "gc.flush_ns" p.flush_ns;
  Nvmtrace.Hooks.observe "gc.cleanup_ns" p.cleanup_ns;
  Nvmtrace.Hooks.observe "gc.nvm_read_bytes" p.traffic.Memsim.Memory.nvm_read_bytes;
  Nvmtrace.Hooks.observe "gc.nvm_write_bytes" p.traffic.Memsim.Memory.nvm_write_bytes;
  Nvmtrace.Hooks.count "gc.objects_copied" ~by:p.objects_copied;
  Nvmtrace.Hooks.count "gc.bytes_copied" ~by:p.bytes_copied;
  Nvmtrace.Hooks.count "gc.bytes_cached" ~by:p.bytes_cached;
  Nvmtrace.Hooks.count "gc.bytes_direct" ~by:p.bytes_direct;
  Nvmtrace.Hooks.count "gc.refs_processed" ~by:p.refs_processed;
  Nvmtrace.Hooks.count "gc.steals" ~by:p.steals;
  Nvmtrace.Hooks.count "gc.async_flushes" ~by:p.async_flushes;
  Nvmtrace.Hooks.count "gc.sync_flushes" ~by:p.sync_flushes;
  Nvmtrace.Hooks.gauge "gc.header_map_occupancy" p.header_map_occupancy

let add totals p =
  if Nvmtrace.Hooks.metrics () <> None then feed_metrics p;
  totals.pauses <- totals.pauses + 1;
  totals.total_pause_ns <- totals.total_pause_ns +. p.pause_ns;
  totals.max_pause_ns <- Float.max totals.max_pause_ns p.pause_ns;
  totals.total_traverse_ns <- totals.total_traverse_ns +. p.traverse_ns;
  totals.total_flush_ns <- totals.total_flush_ns +. p.flush_ns;
  totals.objects_copied <- totals.objects_copied + p.objects_copied;
  totals.bytes_copied <- totals.bytes_copied + p.bytes_copied;
  totals.nvm_bytes <-
    totals.nvm_bytes
    +. p.traffic.Memsim.Memory.nvm_read_bytes
    +. p.traffic.Memsim.Memory.nvm_write_bytes;
  totals.weighted_bw_mbps <-
    totals.weighted_bw_mbps +. (nvm_bandwidth_mbps p *. p.pause_ns);
  Simstats.Percentile.add totals.reservoir p.pause_ns

let total_pause_s totals = totals.total_pause_ns /. 1e9

(* Pause-duration percentiles over the totals reservoir ([nan] before the
   first pause, like the underlying reservoir). *)
let p50_pause_ns totals = Simstats.Percentile.p50 totals.reservoir
let p95_pause_ns totals = Simstats.Percentile.p95 totals.reservoir
let p99_pause_ns totals = Simstats.Percentile.p99 totals.reservoir
let p99_9_pause_ns totals = Simstats.Percentile.p99_9 totals.reservoir

(** Pause-duration tail summary in ms — the SLO line the run-level log
    and the CLI print. *)
let pp_percentiles fmt totals =
  Format.fprintf fmt
    "p50 %.3fms p95 %.3fms p99 %.3fms p99.9 %.3fms max %.3fms"
    (p50_pause_ns totals /. 1e6)
    (p95_pause_ns totals /. 1e6)
    (p99_pause_ns totals /. 1e6)
    (p99_9_pause_ns totals /. 1e6)
    (totals.max_pause_ns /. 1e6)

(** One-line per-pause summary, used by the console log sink
    ([--log-gc debug]) and anywhere a pause needs pretty-printing. *)
let pp_pause fmt p =
  Format.fprintf fmt
    "pause %.3fms = traverse %.3f + write-back %.3f + cleanup %.3f; copied \
     %d objs / %.2f MB (cached %.2f, direct %.2f); refs %d; header-map \
     %d/%d/%d installs/hits/fallbacks (occ %.1f%%); flushes %d async + %d \
     sync; steals %d; idle %.3fms; NVM %.0f MB/s"
    (p.pause_ns /. 1e6) (p.traverse_ns /. 1e6) (p.flush_ns /. 1e6)
    (p.cleanup_ns /. 1e6) p.objects_copied
    (float_of_int p.bytes_copied /. 1e6)
    (float_of_int p.bytes_cached /. 1e6)
    (float_of_int p.bytes_direct /. 1e6)
    p.refs_processed p.header_map_installs p.header_map_hits
    p.header_map_fallbacks
    (100.0 *. p.header_map_occupancy)
    p.async_flushes p.sync_flushes p.steals (p.idle_ns /. 1e6)
    (nvm_bandwidth_mbps p)

(** Pause-time-weighted average NVM bandwidth across pauses, MB/s. *)
let avg_nvm_bandwidth_mbps totals =
  if totals.total_pause_ns <= 0.0 then 0.0
  else totals.weighted_bw_mbps /. totals.total_pause_ns
