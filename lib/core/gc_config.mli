(** GC configuration: collector choice, NVM-aware optimizations, sizing.
    Presets mirror the paper's evaluated configurations. *)

type flush_mode =
  | Sync  (** flush cache regions in a write-only sub-phase (paper §3.2) *)
  | Async  (** flush regions when the Figure-4 tracker marks them ready *)

type collector = G1 | Parallel_scavenge

type t = {
  collector : collector;
  threads : int;
  write_cache : bool;
  write_cache_limit_bytes : int option;  (** [None] = unlimited *)
  flush_mode : flush_mode;
  nt_flush : bool;  (** non-temporal write-back (§4.1) *)
  header_map : bool;
  header_map_bytes : int;
  header_map_min_threads : int;
      (** the map is only consulted at or above this thread count *)
  search_bound : int;  (** Algorithm 1 probe bound *)
  prefetch : bool;
  steal_chunk : int;
  pause_overhead_ns : float;
      (** fixed serial safepoint + VM-root-scan cost per pause *)
  lab_bytes : int;  (** PS thread-local allocation buffer; [max_int] for G1 *)
  direct_copy_threshold : int;
      (** objects above this size bypass the write cache (PS) *)
  verify : bool;
      (** run the heap-invariant verifier / oracle hooks around pauses *)
}

val header_map_entry_bytes : int

val vanilla : ?collector:collector -> threads:int -> scale:int -> unit -> t
(** Unmodified collector.  [scale] divides the paper-scale sizes
    (512 MB header map, 512 MB write cache). *)

val with_write_cache : ?collector:collector -> threads:int -> scale:int -> unit -> t
(** "+writecache": DRAM staging + non-temporal write-back. *)

val all_opts : ?collector:collector -> threads:int -> scale:int -> unit -> t
(** "+all": write cache + header map + non-temporal flush + prefetching. *)

val header_map_entries : t -> int
val header_map_active : t -> bool
(** True when the header map is enabled {e and} the thread count reaches
    [header_map_min_threads] (the paper's gating). *)

val validate : t -> (t, string) result
(** [Ok t] when the collector can run [t]; otherwise [Error] naming the
    first offending field and its value.  Rejected: [threads < 1], a
    [pause_overhead_ns] that is negative or not finite, [steal_chunk < 1],
    and a negative [search_bound], [lab_bytes], [direct_copy_threshold],
    [header_map_bytes] or write-cache limit.  A header map smaller than
    64 entries stays valid (it is sized up to 64), as does a write-cache
    limit of [Some 0]. *)

val verify_active : t -> bool
(** Whether verification runs for this configuration.  The [NVMGC_VERIFY]
    environment variable overrides the config field: "0" / "false" /
    "off" forces it off, any other non-empty value forces it on.  The
    variable is read once per process. *)

val flush_mode_name : flush_mode -> string
val collector_name : collector -> string
val describe : t -> string
