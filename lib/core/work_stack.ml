(** Per-GC-thread working stacks with work stealing.

    Copy-and-traverse is a stack-based DFS (paper §2.1): each GC thread
    pushes the reference slots of objects it copies and pops them LIFO.
    Idle threads steal a chunk from the *bottom* of a victim's stack — the
    end opposite the owner — which is also the event that breaks the LIFO
    order the asynchronous-flush tracker relies on, so stolen items' home
    regions are marked [stolen_from] (paper §4.2).

    Items are structure-of-arrays: parallel int arrays for a packed slot
    id and a home cache-region index (-1 = none), so the push/pop/steal
    hot paths allocate nothing.  A slot id is either

    - a field slot, {!Simheap.Objmodel.field_slot}:
      [(holder << (field_bits + 1)) | (field << 1)], where [holder] is the
      holder object's store handle; or
    - a root slot: [(root_idx << 1) | 1], where [root_idx] indexes the
      pause-local root registry.

    The flush tracker matches its memorized "last" reference by integer
    equality on ids, which is sound because no slot is pushed twice in
    one pause.  A field slot's id is a pure function of (holder handle,
    field), so equal ids mean the same field, and each field is pushed at
    most once per pause: a copied object's fields are pushed by its one
    copy (an object is copied once per pause, and a holder is never freed
    mid-pause, so its handle is not reused), and remembered-set slots are
    seeded once each — both heap builders ([Workloads.Graph_gen],
    [Simcheck.Spec]) take every remembered-set slot from a fresh (holder,
    field) cursor, and a remembered-set holder lies in an old region,
    outside the collection set, so it is never copied in the pause that
    seeds it.  Root ids are minted once per seeded root. *)

module O = Simheap.Objmodel

let no_home = -1
let no_slot = -1

(* ------------------------------------------------------------------ *)
(* Root registry                                                       *)

type pool = { proots : O.root Simstats.Vec.t }

let dummy_root : O.root = { O.root_id = -1; target = 0 }

let create_pool () = { proots = Simstats.Vec.create dummy_root }

(* A collector keeps its pool and stacks across pauses.  Buffers up to
   this many slots are kept (a fuzz pause never outgrows them); a larger
   one, grown by a sweep's pause, is dropped rather than held through
   the mutator phase that follows. *)
let kept_capacity = 1024

(* Forget every registration. *)
let clear_pool pool = Simstats.Vec.clear_to pool.proots ~capacity:kept_capacity

let root_slot pool (r : O.root) =
  Simstats.Vec.push pool.proots r;
  ((Simstats.Vec.length pool.proots - 1) lsl 1) lor 1

let slot_is_root id = id land 1 = 1

let slot_referent pool st id =
  if id land 1 = 1 then (Simstats.Vec.unsafe_get pool.proots (id lsr 1)).O.target
  else O.slot_referent st id

let slot_write pool st id v =
  if id land 1 = 1 then
    (Simstats.Vec.unsafe_get pool.proots (id lsr 1)).O.target <- v
  else O.slot_write st id v

let slot_addr pool st id =
  if id land 1 = 1 then O.root_addr (Simstats.Vec.unsafe_get pool.proots (id lsr 1))
  else O.slot_addr st id

(* ------------------------------------------------------------------ *)
(* Stacks                                                              *)

type t = {
  mutable slots : int array;
  mutable homes : int array;
  mutable len : int;
  mutable popped_home_ : int;
  mutable last_push_clock : float;
      (** simulated instant of the most recent push; a thief's clock is
          advanced to at least this, keeping steals causal *)
  mutable pushes : int;
  mutable pops : int;
  mutable stolen_from_count : int;
}

(* Small: a collector keeps its stacks for life (and a fuzz domain keeps
   dozens of collectors), while [grow] doubles a stack that needs more. *)
let initial_capacity = 16

let create () =
  {
    slots = Array.make initial_capacity no_slot;
    homes = Array.make initial_capacity no_home;
    len = 0;
    popped_home_ = no_home;
    last_push_clock = 0.0;
    pushes = 0;
    pops = 0;
    stolen_from_count = 0;
  }

(* Empty, with fresh counters, as [create] leaves it; the slot arrays
   keep a capacity up to [kept_capacity] (no query sees it). *)
let reset t =
  if Array.length t.slots > kept_capacity then begin
    t.slots <- Array.make initial_capacity no_slot;
    t.homes <- Array.make initial_capacity no_home
  end;
  t.len <- 0;
  t.popped_home_ <- no_home;
  t.last_push_clock <- 0.0;
  t.pushes <- 0;
  t.pops <- 0;
  t.stolen_from_count <- 0

let length t = t.len
let is_empty t = t.len = 0

let grow t needed =
  let cap = Array.length t.slots in
  let new_cap = max needed (cap * 2) in
  let slots = Array.make new_cap no_slot and homes = Array.make new_cap no_home in
  Array.blit t.slots 0 slots 0 t.len;
  Array.blit t.homes 0 homes 0 t.len;
  t.slots <- slots;
  t.homes <- homes

let push t ~clock ~slot ~home =
  if t.len >= Array.length t.slots then grow t (t.len + 1);
  t.slots.(t.len) <- slot;
  t.homes.(t.len) <- home;
  t.len <- t.len + 1;
  t.last_push_clock <- Float.max t.last_push_clock clock;
  t.pushes <- t.pushes + 1

let pop_nonempty t =
  t.pops <- t.pops + 1;
  if t.len = 0 then begin
    t.popped_home_ <- no_home;
    no_slot
  end
  else begin
    let i = t.len - 1 in
    t.len <- i;
    t.popped_home_ <- t.homes.(i);
    t.slots.(i)
  end

let popped_home t = t.popped_home_

let pop t =
  if t.len = 0 then None
  else begin
    let slot = pop_nonempty t in
    Some (slot, t.popped_home_)
  end

(** [steal_into victim ~thief ~chunk ~clock ~mark_home] moves up to [chunk]
    items from the bottom of the victim's stack onto [thief] (in push
    order), reporting each moved item's home region index to [mark_home]
    so it can be flagged stolen-from (disabling asynchronous flushing). *)
let steal_into victim ~thief ~chunk ~clock ~mark_home =
  let k = min chunk victim.len in
  if k > 0 then begin
    if thief.len + k > Array.length thief.slots then grow thief (thief.len + k);
    let vs = victim.slots and vh = victim.homes in
    let ts = thief.slots and th = thief.homes in
    for i = 0 to k - 1 do
      ts.(thief.len + i) <- vs.(i);
      let home = vh.(i) in
      th.(thief.len + i) <- home;
      if home >= 0 then mark_home home
    done;
    thief.len <- thief.len + k;
    thief.pushes <- thief.pushes + k;
    thief.last_push_clock <- Float.max thief.last_push_clock clock;
    victim.stolen_from_count <- victim.stolen_from_count + k;
    (* slide the survivors down to keep the bottom at index 0 *)
    Array.blit vs k vs 0 (victim.len - k);
    Array.blit vh k vh 0 (victim.len - k);
    victim.len <- victim.len - k
  end;
  k

let pushes t = t.pushes
let pops t = t.pops
let stolen_from_count t = t.stolen_from_count
let last_push_clock t = t.last_push_clock
