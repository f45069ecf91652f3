(** Readiness tracking for asynchronous region flushing (paper §4.2,
    Figure 4).

    A cache region may only be flushed once no pending reference update can
    still target it.  Tracking every outstanding reference per region would
    be exact but costly, so the paper exploits the LIFO processing order of
    the DFS traversal: the {e first} reference pushed among those belonging
    to a region's objects is (absent stealing) the {e last} to be popped.

    Protocol, mirroring Figure 4:
    - when the first object with references is copied into a fresh pair,
      memorize its leftmost (first-pushed) reference in [pair.last];
    - when the memorized reference is popped and the pair is already
      filled, every reference targeting the pair has been processed — the
      pair is ready to flush;
    - when it is popped but the pair is still open, re-arm [last] with the
      leftmost reference of the popped reference's referent (Figure 4c);
      if the referent contributes no trackable reference the pair is
      re-armed by the next object copied into it;
    - work stealing breaks the LIFO order, so stolen items mark their home
      region [stolen_from] and such pairs are never flushed early (the
      write-only sub-phase at the end of the pause picks them up).

    The heuristic is deliberately conservative in the simulator exactly
    where the paper's is: a pair whose tracking is lost simply waits for
    the final sub-phase. *)

type decision =
  | Keep  (** nothing to do *)
  | Ready of Write_cache.pair
      (** the pair may be flushed asynchronously right now *)

(* Items are the packed int slot ids of {!Work_stack}: non-negative for
   real references, negative ({!Work_stack.no_slot}) for "none".  Every
   id is minted once per pause, so integer equality below is equivalent
   to the physical item equality of the record representation.  Homes
   are cache-region indices; scratch regions are singleton records per
   index, so index equality is region identity. *)

(** Called when an object (with a first pushed field slot [first_slot],
    if any) has been copied into [pair]. *)
let on_copy (pair : Write_cache.pair) ~first_slot =
  if pair.Write_cache.last < 0 && first_slot >= 0 then
    pair.Write_cache.last <- first_slot

(** Called after an item has been fully processed.  [pair] is the pair
    holding the item's holder object (its home); [referent_first_slot]
    is the first field slot pushed for the item's referent during this
    processing step (negative if the referent was not copied just now or
    contributed no reference), and [referent_home] that slot's home
    cache-region index. *)
let on_processed (pair : Write_cache.pair) ~slot ~referent_first_slot
    ~referent_home =
  if pair.Write_cache.last >= 0 && pair.Write_cache.last = slot then begin
    if pair.Write_cache.filled
       && not pair.Write_cache.cache.Simheap.Region.stolen_from
    then begin
      pair.Write_cache.last <- Work_stack.no_slot;
      Nvmtrace.Hooks.count ~by:1 "flush_tracker.ready";
      Ready pair
    end
    else begin
      (* Figure 4c: the region is still open; memorize the leftmost
         reference of the referent instead — but only when the referent
         was copied into {e this} pair.  A reference whose holder lives
         in a different pair pops with that pair as its home, so it
         would never be matched against our [last] and the pair would
         silently lose async-flush eligibility.  In that case drop the
         tracking; the next object copied into the pair re-arms it. *)
      let same_pair =
        referent_first_slot >= 0
        && referent_home = pair.Write_cache.cache.Simheap.Region.idx
      in
      if same_pair then Nvmtrace.Hooks.count ~by:1 "flush_tracker.rearms"
      else
        (* Tracking lost: the pair waits for the write-only sub-phase.
           Counting these makes the conservatism of the Figure-4c
           heuristic visible in the metrics/recorder output. *)
        Nvmtrace.Hooks.count ~by:1 "flush_tracker.lost_tracking";
      pair.Write_cache.last <-
        (if same_pair then referent_first_slot else Work_stack.no_slot);
      Keep
    end
  end
  else Keep

(** A filled pair whose [last] was already consumed (e.g. all trackable
    references processed before it filled) is also ready; the evacuation
    loop polls this when it fills a pair. *)
let ready_on_fill (pair : Write_cache.pair) =
  pair.Write_cache.filled
  && pair.Write_cache.last < 0
  && (not pair.Write_cache.flushed)
  && not pair.Write_cache.cache.Simheap.Region.stolen_from
