(** Object-graph generation for one mutation cycle.

    Populates the eden space with the live-object graph a young GC will
    encounter, per the application profile:

    - only {e live} objects are materialized; dead allocations appear as
      bump-pointer gaps (the GC never touches dead objects, so their only
      observable effect is eden occupancy);
    - live objects form structures anchored at {e entry} objects, each
      reached from a remembered-set slot (an old-space holder field) or a
      mutator root;
    - structures are pointer chains (serializing traversal — akka-uct's
      load imbalance) or bushy trees, mixed per [chain_fraction];
    - primitive arrays attach as leaves; some node fields point into old
      space; a small share of objects carries duplicate incoming
      references, exercising forwarding-pointer deduplication.

    Generation is arena-style: the intermediate populations (nodes,
    arrays, entries, open nodes, chain tails) live in per-domain vectors
    reused across cycles, so the construction path performs no list
    consing and no per-object record allocation — a sweep generates
    thousands of graphs and the old cons/[Array.of_list] path dominated
    its host-allocation profile. *)

module R = Simheap.Region
module O = Simheap.Objmodel
module P = App_profile

type stats = {
  live_objects : int;
  live_bytes : int;
  arrays : int;
  chains : int;
  trees : int;
  remset_slots : int;
  root_slots : int;
  eden_regions : int;
}

(* Draw sizes so that the byte-weighted mean of the resulting population is
   close to the profile's means.  The lognormal mu/sigma derivations are
   per-profile constants, precomputed once per cycle ({!shapes_of}) — the
   draws themselves are bit-identical to calling [Prng.lognormal]. *)
type shape_params = {
  fields_ln : Simstats.Prng.lognormal_params;
  node_size_ln : Simstats.Prng.lognormal_params;
  array_size_ln : Simstats.Prng.lognormal_params;
}

let shapes_of (p : P.t) =
  {
    fields_ln =
      Simstats.Prng.lognormal_params ~mean:(Float.max 1.0 p.P.mean_fields)
        ~cv:0.6;
    node_size_ln =
      Simstats.Prng.lognormal_params ~mean:p.P.mean_obj_bytes
        ~cv:p.P.obj_size_cv;
    array_size_ln =
      Simstats.Prng.lognormal_params ~mean:p.P.mean_array_bytes
        ~cv:p.P.obj_size_cv;
  }

let node_shape sp rng =
  let nfields =
    max 1 (int_of_float (Simstats.Prng.lognormal_draw rng sp.fields_ln +. 0.5))
  in
  let base = Simheap.Layout.header_bytes + (nfields * Simheap.Layout.ref_bytes) in
  let size = Simstats.Prng.lognormal_draw rng sp.node_size_ln in
  let size = max base (8 * ((int_of_float size + 7) / 8)) in
  (size, nfields)

let array_shape (p : P.t) sp rng =
  let size = Simstats.Prng.lognormal_draw rng sp.array_size_ln in
  let size = max 32 (8 * ((int_of_float size + 7) / 8)) in
  (min size (p.P.region_bytes / 2), 0)

type builder = {
  heap : Simheap.Heap.t;
  profile : P.t;
  rng : Simstats.Prng.t;
  mutable eden : R.t option;
  mutable eden_count : int;
  mutable allocated : int;  (** live + dead-gap bytes placed in eden *)
  mutable live : int;
}

(* Allocate one live object (with its dead-allocation gap); returns
   [O.none] when eden is exhausted. *)
let rec alloc_live b size nfields =
  match b.eden with
  | Some region -> begin
      (* Scatter live objects by preceding each with a dead-allocation
         gap sized so live/allocated matches the survival ratio. *)
      let ratio = Float.max 0.02 b.profile.P.survival_ratio in
      let gap_mean = float_of_int size *. ((1.0 /. ratio) -. 1.0) in
      let gap =
        8 * (int_of_float (Simstats.Prng.float b.rng (2.0 *. gap_mean)) / 8)
      in
      let gap = min gap (R.free_bytes region - size) in
      if gap > 0 then begin
        ignore (R.alloc region gap);
        b.allocated <- b.allocated + gap
      end;
      let obj = Simheap.Heap.new_object b.heap region ~size ~nfields in
      if obj = O.none then begin
        b.eden <- None;
        alloc_live b size nfields
      end
      else begin
        b.allocated <- b.allocated + size;
        b.live <- b.live + size;
        obj
      end
    end
  | None -> begin
      if b.eden_count >= P.young_regions b.profile then O.none
      else begin
        match Simheap.Heap.alloc_region b.heap R.Eden with
        | None -> O.none
        | Some region ->
            b.eden <- Some region;
            b.eden_count <- b.eden_count + 1;
            alloc_live b size nfields
      end
  end

(* Per-domain construction arena of object handles, reused across
   cycles.  Open nodes are structure-of-arrays: the object and its next
   free field index in parallel vectors (the record version allocated one
   box per open node and another per chain-tail advance). *)
type arena = {
  nodes : Simstats.Ivec.t;
  arrays : Simstats.Ivec.t;
  entries : Simstats.Ivec.t;
  open_objs : Simstats.Ivec.t;
  open_next : Simstats.Ivec.t;
  tail_objs : Simstats.Ivec.t;
      (** chain tails; a tail's link field is always 0, so only the
          object needs storing *)
  mutable shapes : (P.t * shape_params) option;
      (** [shapes_of] cache, keyed by physical profile identity *)
}

let arena_key =
  Domain.DLS.new_key (fun () ->
      {
        nodes = Simstats.Ivec.create ();
        arrays = Simstats.Ivec.create ();
        entries = Simstats.Ivec.create ();
        open_objs = Simstats.Ivec.create ();
        open_next = Simstats.Ivec.create ();
        tail_objs = Simstats.Ivec.create ();
        shapes = None;
      })

let shapes_for arena profile =
  match arena.shapes with
  | Some (p, sp) when p == profile -> sp
  | _ ->
      let sp = shapes_of profile in
      arena.shapes <- Some (profile, sp);
      sp

(** Generate the live graph for one cycle.  The caller must have reset the
    roots and the old-space holder pool. *)
let generate ~heap ~(profile : P.t) ~rng ~old_pool =
  let b =
    { heap; profile; rng; eden = None; eden_count = 0; allocated = 0; live = 0 }
  in
  let target_live = P.live_bytes_per_gc profile in
  let st = Simheap.Heap.store heap in
  let a = Domain.DLS.get arena_key in
  let shapes = shapes_for a profile in
  let nodes = a.nodes and arrays = a.arrays in
  let entries = a.entries in
  let open_objs = a.open_objs and open_next = a.open_next in
  let tail_objs = a.tail_objs in
  Simstats.Ivec.clear nodes;
  Simstats.Ivec.clear arrays;
  Simstats.Ivec.clear entries;
  Simstats.Ivec.clear open_objs;
  Simstats.Ivec.clear open_next;
  Simstats.Ivec.clear tail_objs;
  (* 1. Materialize the live population. *)
  let continue_ = ref true in
  while !continue_ && b.live < target_live do
    let is_array = Simstats.Prng.float rng 1.0 < profile.P.array_fraction in
    let size, nfields =
      if is_array then array_shape profile shapes rng
      else node_shape shapes rng
    in
    let obj = alloc_live b size nfields in
    if obj = O.none then continue_ := false
    else if is_array then Simstats.Ivec.push arrays obj
    else Simstats.Ivec.push nodes obj
  done;
  (* The retired cons/[Array.of_list] representation enumerated both
     populations newest-first; reversing the push-ordered vectors keeps
     the generator stream (and thus every produced graph) bit-identical. *)
  Simstats.Ivec.reverse_in_place nodes;
  Simstats.Ivec.reverse_in_place arrays;
  Simstats.Ivec.shuffle rng nodes;
  (* 2. Partition nodes into entry-anchored structures. *)
  let total_live = Simstats.Ivec.length nodes + Simstats.Ivec.length arrays in
  let entry_count =
    max 1
      (min
         (Simstats.Ivec.length nodes)
         (int_of_float (profile.P.entry_fraction *. float_of_int total_live)))
  in
  let chains = ref 0 and trees = ref 0 in
  let new_entry obj =
    Simstats.Ivec.push entries obj;
    if O.nfields st obj > 0
       && Simstats.Prng.float rng 1.0 < profile.P.chain_fraction
    then begin
      incr chains;
      Simstats.Ivec.push tail_objs obj
    end
    else begin
      incr trees;
      if O.nfields st obj > 0 then begin
        Simstats.Ivec.push open_objs obj;
        Simstats.Ivec.push open_next 0
      end
    end
  in
  for i = 0 to entry_count - 1 do
    new_entry (Simstats.Ivec.get nodes i)
  done;
  (* Members join a random structure: chains grow at their tail through
     field 0; trees attach members at any open field. *)
  let attach_to_tree member =
    let n = Simstats.Ivec.length open_objs in
    if n = 0 then false
    else begin
      let i = Simstats.Prng.int rng n in
      let parent = Simstats.Ivec.get open_objs i in
      let next_field = Simstats.Ivec.get open_next i in
      O.set_field st parent next_field (O.addr st member);
      if next_field + 1 >= O.nfields st parent then begin
        (* swap-remove the saturated parent from both columns *)
        let last = Simstats.Ivec.length open_objs - 1 in
        Simstats.Ivec.set open_objs i (Simstats.Ivec.get open_objs last);
        Simstats.Ivec.set open_next i (Simstats.Ivec.get open_next last);
        ignore (Simstats.Ivec.pop_or open_objs O.none : int);
        ignore (Simstats.Ivec.pop_or open_next 0 : int)
      end
      else Simstats.Ivec.set open_next i (next_field + 1);
      true
    end
  in
  let attach_to_chain member =
    let n = Simstats.Ivec.length tail_objs in
    if n = 0 then false
    else begin
      let i = Simstats.Prng.int rng n in
      let tail = Simstats.Ivec.get tail_objs i in
      O.set_field st tail 0 (O.addr st member);
      Simstats.Ivec.set tail_objs i member;
      true
    end
  in
  for i = entry_count to Simstats.Ivec.length nodes - 1 do
    let member = Simstats.Ivec.get nodes i in
    let prefer_chain = Simstats.Prng.float rng 1.0 < profile.P.chain_fraction in
    (* How the member actually attached matters: a chain tail's field 0 is
       reserved for its successor, so only members that really joined a
       chain may skip it when they later host tree children. *)
    let attachment =
      if prefer_chain then
        if attach_to_chain member then `Chain
        else if attach_to_tree member then `Tree
        else `None
      else if attach_to_tree member then `Tree
      else if attach_to_chain member then `Chain
      else `None
    in
    match attachment with
    | `None ->
        (* no open structure can take it: promote to an extra entry *)
        new_entry member
    | `Chain ->
        (* field 0 is the chain link; remaining fields may host children *)
        if O.nfields st member > 1 then begin
          Simstats.Ivec.push open_objs member;
          Simstats.Ivec.push open_next 1
        end
    | `Tree ->
        Simstats.Ivec.push open_objs member;
        Simstats.Ivec.push open_next 0
  done;
  (* 3. Arrays attach as leaves wherever a field is open; orphans become
     entry structures of their own (anchored directly).  [arrays] was
     reversed above, so a forward walk is newest-first — the retired
     list order. *)
  for i = 0 to Simstats.Ivec.length arrays - 1 do
    let arr = Simstats.Ivec.get arrays i in
    if not (attach_to_tree arr) then new_entry arr
  done;
  (* 4. Point some remaining open fields at old space; null the rest
     (they were initialized null). *)
  for k = 0 to Simstats.Ivec.length open_objs - 1 do
    let obj = Simstats.Ivec.get open_objs k in
    for i = Simstats.Ivec.get open_next k to O.nfields st obj - 1 do
      if Simstats.Prng.float rng 1.0 < profile.P.old_target_fraction then begin
        let holder = Old_space.random_holder old_pool rng in
        O.set_field st obj i (O.addr st holder)
      end
    done
  done;
  (* 5. Anchor every structure entry from a remset slot or a root
     (newest-first, matching the retired list order). *)
  let remset_slots = ref 0 and root_slots = ref 0 in
  for i = Simstats.Ivec.length entries - 1 downto 0 do
    let obj = Simstats.Ivec.get entries i in
    if Simstats.Prng.float rng 1.0 < profile.P.remset_fraction then begin
      let region = Simheap.Heap.region_of_addr heap (O.addr st obj) in
      let slot = Old_space.take_slot old_pool in
      O.slot_write st slot (O.addr st obj);
      Simstats.Ivec.push region.R.remset slot;
      incr remset_slots
    end
    else begin
      ignore (Simheap.Heap.new_root heap (O.addr st obj));
      incr root_slots
    end
  done;
  (* 6. Duplicate references: extra remset slots at ~5 % of live nodes,
     exercising forwarding-pointer deduplication. *)
  let dup_count = Simstats.Ivec.length nodes / 20 in
  for _ = 1 to dup_count do
    if Simstats.Ivec.length nodes > 0 then begin
      let obj =
        Simstats.Ivec.get nodes
          (Simstats.Prng.int rng (Simstats.Ivec.length nodes))
      in
      let slot = Old_space.take_slot old_pool in
      O.slot_write st slot (O.addr st obj);
      let region = Simheap.Heap.region_of_addr heap (O.addr st obj) in
      Simstats.Ivec.push region.R.remset slot;
      incr remset_slots
    end
  done;
  {
    live_objects = total_live;
    live_bytes = b.live;
    arrays = Simstats.Ivec.length arrays;
    chains = !chains;
    trees = !trees;
    remset_slots = !remset_slots;
    root_slots = !root_slots;
    eden_regions = b.eden_count;
  }
