(** Pluggable scheduling decisions for the evacuation engine.

    A schedule replaces each discretionary choice of {!Evacuation} — next
    thread, steal victim, cache-region grabs, header-map fallback timing,
    asynchronous-flush readiness — with its own, restricted to
    semantics-preserving alternatives.  Three further decisions inject
    faults instead: a power failure and two flush-protocol violations.
    Used by [lib/simcheck] to fuzz GC-thread interleavings and crash
    consistency; without an installed schedule the engine keeps its
    deterministic min-clock policy. *)

type t = {
  pick_thread : runnable:int array -> int;
      (** index into [runnable] (thread ids able to pop or steal,
          ascending); out-of-range values are clamped by the engine *)
  pick_victim : thief:int -> victims:int array -> int;
      (** index into [victims] (thread ids with >= 2 stacked items,
          ascending, excluding the thief); clamped likewise *)
  defer_region_grab : tid:int -> bool;
      (** copy directly to NVM instead of taking a fresh cache pair *)
  force_hm_fallback : tid:int -> bool;
      (** treat this header-map install as [Full] (NVM-header fallback) *)
  defer_async_flush : tid:int -> bool;
      (** leave this flush-ready region to the write-only sub-phase *)
  crash : step:int -> bool;
      (** kill the simulation at crash point [step] (numbered 1, 2, ...
          in consultation order) by raising {!Evacuation.Crashed} — used
          by the crash-consistency fuzzer; consulted with a counter and
          no PRNG, so crash wrappers leave the underlying schedule's
          decision stream untouched *)
  flush_early : tid:int -> bool;
      (** answer a Keep decision of the Figure-4 readiness protocol with
          Ready, flushing a pair while reference updates into it are
          pending *)
  drop_flush : tid:int -> bool;
      (** report a flush complete without writing its bytes to NVM *)
}

val default : t
(** Lowest-id choices; nothing deferred, forced, crashed or violated.
    Interleaves differently from the min-clock engine but must agree
    semantically. *)
