(** A complete stop-the-world young collection over the simulated heap:
    seeding from remembered sets and roots, copy-and-traverse, the
    write-only sub-phase, header-map cleanup, and region reclamation.
    Collector-specific behaviour (G1 vs PS) comes from {!Gc_config}. *)

type t

val create :
  ?schedule:Schedule.t ->
  heap:Simheap.Heap.t ->
  memory:Memsim.Memory.t ->
  Gc_config.t ->
  t
(** The header map (when active for this configuration) is allocated once
    and reused across pauses, as in the paper; so are the evacuation
    engine and the write cache.  [schedule] is handed to every pause's
    evacuation engine (the simulation-testing seam); without it pauses run
    under the deterministic min-clock policy.

    @raise Invalid_argument naming the field when
    {!Gc_config.validate} rejects the configuration. *)

val reset :
  ?schedule:Schedule.t ->
  ?config:Gc_config.t ->
  t ->
  heap:Simheap.Heap.t ->
  memory:Memsim.Memory.t ->
  unit
(** Rebind the collector to [heap], [memory], [schedule] and [config]
    (default: its current one) and return it to a state no query can
    tell apart from [create ?schedule ~heap ~memory config]: empty header
    map, zero totals, and every pause's engine state re-initialised as
    usual — whether the previous pause completed, crashed or failed
    verification.  Thread records, work stacks, and a header map or
    write cache the new configuration can share are reused, not
    reallocated.

    @raise Invalid_argument naming the field when
    {!Gc_config.validate} rejects [config]. *)

val totals : t -> Gc_stats.totals
val header_map : t -> Header_map.t option
val heap : t -> Simheap.Heap.t
val config : t -> Gc_config.t

type verify_hooks = {
  before_pause : t -> unit;
      (** fired at the start of {!collect}, before any evacuation work —
          the oracle collector snapshots the pre-pause heap here *)
  after_pause : t -> Gc_stats.pause -> unit;
      (** fired after the pause is fully wound down (regions reclaimed,
          header map cleared) — invariant checking and oracle diffing *)
}

val set_verify_hooks : verify_hooks option -> unit
(** Register (or clear) the process-wide verification hooks.  They run
    only for collectors whose configuration enables verification
    ({!Gc_config.verify_active}).  The hooks live in [lib/verify], which
    depends on this library — hence registration instead of direct
    calls. *)

val verifying : t -> bool
(** Whether {!collect} on this collector will fire the hooks. *)

val cleanup_slices : bytes:int -> threads:int -> int array
(** Partition of [bytes] of header-map cleanup traffic across [threads]
    workers: slices differ by at most one byte and sum exactly to
    [bytes] (the remainder is spread over the leading workers). *)

val collect : t -> now_ns:float -> Gc_stats.pause
(** Run one young collection starting at simulated instant [now_ns];
    returns its statistics (also folded into [totals]).

    @raise Evacuation.Evacuation_failure when survivor space runs out. *)
