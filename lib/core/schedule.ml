(** The schedule seam: every discretionary decision the evacuation engine
    makes — which thread runs next, whom to steal from, when to grab a
    cache region, when the header map "fills", when a ready region is
    flushed — funnels through this record, so the simulated GC-thread
    interleaving itself becomes an input.  So do the three destructive
    decisions the crash-consistency fuzzer injects: a power failure
    ([crash]) and two flush-protocol violations ([flush_early],
    [drop_flush]) that mutation-test its recovery oracle.

    The default engine (no schedule installed) keeps the deterministic
    min-clock policy; a schedule replaces each decision with its own,
    drawn from {e semantics-preserving alternatives} only:

    - [pick_thread] chooses among threads that can make progress (pop or
      steal), so any choice advances the traversal;
    - [pick_victim] chooses among victims with at least two stacked items
      (the engine's own stealability rule);
    - [defer_region_grab] makes a thread copy directly to NVM instead of
      taking a fresh write-cache pair — always a legal fallback (it is
      what happens when the cache budget runs out);
    - [force_hm_fallback] makes a header-map install behave as if the
      probe bound were exhausted (Algorithm 1's [Full]), exercising the
      NVM-header fallback at arbitrary objects;
    - [defer_async_flush] keeps a flush-ready region for the final
      write-only sub-phase (the §4.2 tracker is already conservative;
      deferring is always correct).

    Whatever those decisions, the surviving object graph must match the
    oracle collector — that is precisely what [lib/simcheck] fuzzes.
    Timing and statistics may (and do) differ between schedules. *)

type t = {
  pick_thread : runnable:int array -> int;
      (** index into [runnable] (thread ids able to pop or steal right
          now, ascending); the engine clamps out-of-range values.  The
          array is an engine buffer refilled every step, so a schedule
          reads it during the call and never keeps it *)
  pick_victim : thief:int -> victims:int array -> int;
      (** index into [victims] (thread ids with >= 2 stacked items,
          ascending, never the thief); clamped likewise, and likewise a
          reused buffer *)
  defer_region_grab : tid:int -> bool;
      (** [true]: do not take a fresh write-cache pair for this copy *)
  force_hm_fallback : tid:int -> bool;
      (** [true]: install this forwarding pointer in the NVM header as
          if {!Header_map.put} had returned [Full] *)
  defer_async_flush : tid:int -> bool;
      (** [true]: leave this flush-ready region to the write-only
          sub-phase *)
  crash : step:int -> bool;
      (** [true]: kill the simulation at this crash point.  Unlike the
          decisions above this one is deliberately destructive: the
          engine raises {!Evacuation.Crashed} mid-pause, modeling a
          power failure.  Crash points are numbered 1, 2, ... in
          consultation order (scheduling-loop iterations and the
          stages of each region flush); the engine passes the current
          number and never consults any PRNG here, so wrapping a
          schedule with a crash predicate does not perturb the
          decision stream of the underlying schedule. *)
  flush_early : tid:int -> bool;
      (** [true]: answer this Keep decision of the Figure-4 readiness
          protocol with Ready, flushing the pair while reference updates
          into it are pending (a protocol violation) *)
  drop_flush : tid:int -> bool;
      (** [true]: report this flush complete without writing its bytes
          to NVM (a protocol violation) *)
}

(** The identity schedule: lowest-id runnable thread, lowest-id victim,
    never defers, forces, crashes or violates anything.  Interleavings
    differ from the min-clock default, but semantics must not. *)
let default =
  {
    pick_thread = (fun ~runnable:_ -> 0);
    pick_victim = (fun ~thief:_ ~victims:_ -> 0);
    defer_region_grab = (fun ~tid:_ -> false);
    force_hm_fallback = (fun ~tid:_ -> false);
    defer_async_flush = (fun ~tid:_ -> false);
    crash = (fun ~step:_ -> false);
    flush_early = (fun ~tid:_ -> false);
    drop_flush = (fun ~tid:_ -> false);
  }
