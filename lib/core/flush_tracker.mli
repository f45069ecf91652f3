(** Readiness tracking for asynchronous region flushing: the LIFO
    "last-reference" protocol of paper §4.2, Figure 4. *)

type decision =
  | Keep  (** the item was not the pair's memorized last reference *)
  | Rearmed  (** it was, on a pair not yet ready: re-armed (Figure 4c) *)
  | Lost
      (** it was, on a pair not yet ready, and nothing in this pair can
          re-arm it: the pair waits for a later copy or the write-only
          sub-phase *)
  | Ready of Write_cache.pair
      (** the pair may be flushed asynchronously right now *)

val on_copy : Write_cache.pair -> first_slot:int -> unit
(** Arm the pair's [last] field with the first (leftmost) reference
    pushed for an object copied into it (Figure 4a).  [first_slot] is a
    packed {!Work_stack} slot id, negative for "no reference". *)

val on_processed :
  Write_cache.pair ->
  slot:int ->
  referent_first_slot:int ->
  referent_home:int ->
  decision
(** Called after a work item whose holder lives in the pair has been
    processed: if it was the memorized last reference, the pair is ready
    (when filled) or re-armed with the referent's leftmost reference
    (Figure 4c/4d) — [referent_first_slot] (negative for none) with its
    home cache-region index [referent_home].  Stolen-from pairs are
    never marked ready. *)

val ready_on_fill : Write_cache.pair -> bool
(** A pair whose tracking already drained when it fills is also ready. *)
