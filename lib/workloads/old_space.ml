(** Old-space management for the workload driver.

    Two responsibilities:

    - a persistent pool of {e holder} objects in old regions whose fields
      carry the old-to-young references that populate remembered sets
      (G1's remset entries point from old space into young regions);
    - recycling of promoted old regions between cycles, standing in for
      the mixed GCs the paper observes to be rare (their cost is not
      modelled; they merely keep the scaled-down heap from filling up). *)

module R = Simheap.Region
module O = Simheap.Objmodel

let holder_fields = 8
let holder_bytes = Simheap.Layout.header_bytes + (holder_fields * Simheap.Layout.ref_bytes)

type t = {
  heap : Simheap.Heap.t;
  holders : O.t Simstats.Vec.t;
  mutable holder_region : R.t option;
  mutable holder_region_idxs : int list;  (** regions never recycled *)
  mutable cursor : int;  (** next (holder, field) slot, flattened *)
}

let create heap =
  {
    heap;
    holders = Simstats.Vec.create R.dummy_obj;
    holder_region = None;
    holder_region_idxs = [];
    cursor = 0;
  }

let rec new_holder t =
  match t.holder_region with
  | Some region -> begin
      match
        Simheap.Heap.new_object t.heap region ~size:holder_bytes
          ~nfields:holder_fields
      with
      | Some obj ->
          Simstats.Vec.push t.holders obj;
          obj
      | None ->
          t.holder_region <- None;
          new_holder t
    end
  | None -> begin
      match Simheap.Heap.alloc_region t.heap R.Old with
      | None -> failwith "Old_space: heap exhausted allocating holders"
      | Some region ->
          t.holder_region <- Some region;
          t.holder_region_idxs <- region.R.idx :: t.holder_region_idxs;
          new_holder t
    end

(** Make sure at least [n] holder slots exist. *)
let ensure_slots t n =
  while Simstats.Vec.length t.holders * holder_fields < n do
    ignore (new_holder t)
  done

(** Null every holder field and rewind the slot cursor — called at the
    start of each mutation cycle so stale (possibly recycled) targets are
    never dereferenced. *)
let reset_cycle t =
  Simstats.Vec.iter
    (fun (h : O.t) -> Array.fill h.O.fields 0 (Array.length h.O.fields) Simheap.Layout.null)
    t.holders;
  t.cursor <- 0

(** Next free (holder, field-index) slot; grows the pool on demand. *)
let take_slot t =
  ensure_slots t (t.cursor + 1);
  let holder = Simstats.Vec.get t.holders (t.cursor / holder_fields) in
  let field = t.cursor mod holder_fields in
  t.cursor <- t.cursor + 1;
  (holder, field)

(** A random existing holder — used as the target of live-object fields
    that point into old space (read-only for the GC). *)
let random_holder t rng =
  ensure_slots t 1;
  Simstats.Vec.get t.holders (Simstats.Prng.int rng (Simstats.Vec.length t.holders))

(** Recycle promoted old regions (a costless stand-in for mixed GC) until
    at least [keep_free] regions are free.  Holder regions are exempt. *)
let recycle t ~keep_free =
  if Simheap.Heap.free_regions t.heap < keep_free then begin
    let protected_ = t.holder_region_idxs in
    let candidates = Simheap.Heap.regions_of_kind t.heap R.Old in
    List.iter
      (fun (region : R.t) ->
        if Simheap.Heap.free_regions t.heap < keep_free
           && not (List.mem region.R.idx protected_)
        then begin
          Simstats.Vec.iter
            (fun (obj : O.t) ->
              if R.contains region obj.O.addr then
                Simheap.Heap.unbind t.heap obj.O.addr)
            region.R.objs;
          Simheap.Heap.release_region t.heap region
        end)
      candidates
  end
