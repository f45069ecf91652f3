(** GC configuration: which collector, which NVM-aware optimizations, and
    their sizing knobs.  The presets mirror the configurations the paper
    evaluates ("vanilla", "+writecache", "+all", Figure 5/13 legends). *)

type flush_mode =
  | Sync  (** write cache regions flushed in a write-only sub-phase at the
              end of the pause (paper §3.2) *)
  | Async  (** regions flushed as soon as the Figure-4 tracker marks them
               ready (paper §4.2); requires non-temporal stores to pay off *)

type collector = G1 | Parallel_scavenge

type t = {
  collector : collector;
  threads : int;
  (* Write cache (§3.2). *)
  write_cache : bool;
  write_cache_limit_bytes : int option;
      (** [None] = unlimited (Figure 11 "sync-unlimited") *)
  flush_mode : flush_mode;
  nt_flush : bool;  (** use non-temporal stores for write-back (§4.1) *)
  (* Header map (§3.3). *)
  header_map : bool;
  header_map_bytes : int;
  header_map_min_threads : int;
      (** the map is only consulted at or above this thread count (the
          paper enables it from 8 threads) *)
  search_bound : int;  (** Algorithm 1 probe bound *)
  (* Software prefetching (§4.3). *)
  prefetch : bool;
  (* Work distribution. *)
  steal_chunk : int;
  pause_overhead_ns : float;
      (** fixed serial safepoint + VM-root-scan cost per pause,
          device-independent *)
  (* Parallel Scavenge specifics (§4.4): objects larger than this bypass
     LABs and are copied directly (uncacheable); [max_int] for G1. *)
  lab_bytes : int;
  direct_copy_threshold : int;
  (* Correctness checking. *)
  verify : bool;
      (** run the heap-invariant verifier and oracle collector (when
          installed via {!Young_gc.set_verify_hooks}) around every pause *)
}

let header_map_entry_bytes = 16

(** Paper defaults for the Renaissance configuration (16 GB heap, 512 MB
    header map, heap/32 write cache), scaled by [scale] (e.g. [scale=64]
    simulates a 64x smaller heap). *)
let vanilla ?(collector = G1) ~threads ~scale () =
  {
    collector;
    threads;
    write_cache = false;
    write_cache_limit_bytes = Some (512 * 1024 * 1024 / scale);
    flush_mode = Sync;
    nt_flush = false;
    header_map = false;
    header_map_bytes = 512 * 1024 * 1024 / scale;
    header_map_min_threads = 8;
    search_bound = 16;
    prefetch = collector = G1;
    (* vanilla G1 already prefetches on push (paper §4.3); vanilla PS
       does not (§4.4) *)
    steal_chunk = 16;
    pause_overhead_ns = 60_000.0;
    lab_bytes =
      (match collector with G1 -> max_int | Parallel_scavenge -> 16 * 1024);
    direct_copy_threshold =
      (match collector with G1 -> max_int | Parallel_scavenge -> 4 * 1024);
    verify = true;
  }

let with_write_cache ?collector ~threads ~scale () =
  { (vanilla ?collector ~threads ~scale ()) with write_cache = true; nt_flush = true }

(** "+all": write cache + header map + non-temporal flush + prefetching. *)
let all_opts ?collector ~threads ~scale () =
  {
    (with_write_cache ?collector ~threads ~scale ()) with
    header_map = true;
    prefetch = true;
  }

let header_map_entries t = max 64 (t.header_map_bytes / header_map_entry_bytes)

let header_map_active t = t.header_map && t.threads >= t.header_map_min_threads

(** Reject the values the collector cannot run with.  Sizes a collector
    legitimately rounds up stay valid: a header map below 64 entries is
    sized to 64, and a write-cache limit of [Some 0] means "no cache
    region at all". *)
let validate t =
  let bad field fmt = Printf.ksprintf (fun why -> Error (field ^ " " ^ why)) fmt in
  let negative field v = bad field "= %d, must be >= 0" v in
  if t.threads < 1 then bad "threads" "= %d, must be >= 1" t.threads
  else if not (Float.is_finite t.pause_overhead_ns && t.pause_overhead_ns >= 0.0)
  then
    bad "pause_overhead_ns" "= %g, must be finite and >= 0" t.pause_overhead_ns
  else if t.steal_chunk < 1 then
    bad "steal_chunk" "= %d, must be >= 1" t.steal_chunk
  else if t.search_bound < 0 then negative "search_bound" t.search_bound
  else if t.lab_bytes < 0 then negative "lab_bytes" t.lab_bytes
  else if t.direct_copy_threshold < 0 then
    negative "direct_copy_threshold" t.direct_copy_threshold
  else if t.header_map_bytes < 0 then
    negative "header_map_bytes" t.header_map_bytes
  else
    match t.write_cache_limit_bytes with
    | Some limit when limit < 0 -> negative "write_cache_limit_bytes" limit
    | Some _ | None -> Ok t

(* Read once, at start-up: [verify_active] runs on every pause, and the
   variable is a process-level switch (the [@verify] alias sets it for
   the whole test binary).  Not a [lazy]: pauses on several domains
   would force it concurrently, which raises [Lazy.Undefined]. *)
let verify_override =
  match Sys.getenv_opt "NVMGC_VERIFY" with
  | Some ("0" | "false" | "off") -> Some false
  | Some _ -> Some true
  | None -> None

(** Whether verification should run for this configuration.  The
    [NVMGC_VERIFY] environment variable overrides the config: "0",
    "false" or "off" forces it off; any other non-empty value forces it
    on (the [@verify] build alias sets it to "1"). *)
let verify_active t =
  match verify_override with Some v -> v | None -> t.verify

let collector_name = function G1 -> "g1" | Parallel_scavenge -> "ps"

let describe t =
  Printf.sprintf "%s/%dT%s%s%s%s"
    (collector_name t.collector)
    t.threads
    (if t.write_cache then "+wc" else "")
    (if t.header_map then "+hm" else "")
    (if t.prefetch then "+pf" else "")
    (match t.flush_mode with Async -> "+async" | Sync -> "")
