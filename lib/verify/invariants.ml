(** Post-pause heap-invariant verifier.

    After a young collection finishes, the simulated heap must be in a
    canonical quiescent state: only [Free] and [Old] regions remain,
    every address-table binding is self-consistent and names a live
    handle of the object store, whose live count equals the bindings (no
    region list, remset entry or root reaches a freed handle), no
    pause-local state
    (forwarding pointers, cached copies, collection-set or stolen-from
    marks) survives, the DRAM scratch pool is fully returned, and the
    header map is completely cleared.

    Checks are pure observation — nothing here touches {!Memsim.Memory}
    or mutates the heap, so enabling verification cannot perturb the
    simulation (the determinism tests run with it on). *)

module R = Simheap.Region
module O = Simheap.Objmodel
module H = Simheap.Heap

(* Accumulates violation messages, capped so a badly broken heap reports
   a digestible prefix instead of one line per object. *)
type ctx = { mutable msgs : string list; mutable count : int }

let max_messages = 50

let violation ctx fmt =
  Format.kasprintf
    (fun msg ->
      ctx.count <- ctx.count + 1;
      if ctx.count <= max_messages then ctx.msgs <- msg :: ctx.msgs)
    fmt

let region_name (r : R.t) =
  Printf.sprintf "region %d (%s, base 0x%x)" r.R.idx (R.kind_name r.R.kind)
    r.R.base

(* A region that is supposed to be quiescent and empty. *)
let check_free_region ctx (r : R.t) =
  if r.R.top <> 0 then
    violation ctx "%s: free region with top = %d" (region_name r) r.R.top;
  if Simstats.Ivec.length r.R.objs <> 0 then
    violation ctx "%s: free region holds %d objects" (region_name r)
      (Simstats.Ivec.length r.R.objs);
  if Simstats.Ivec.length r.R.remset <> 0 then
    violation ctx "%s: free region holds %d remset entries" (region_name r)
      (Simstats.Ivec.length r.R.remset);
  if r.R.stolen_from then
    violation ctx "%s: free region still marked stolen_from" (region_name r);
  if r.R.in_cset then
    violation ctx "%s: free region still marked in_cset" (region_name r)

let unbound heap addr =
  addr <> Simheap.Layout.null && H.find heap addr = O.none

(* The subject of a per-object violation, built only once one is
   reported: this walk visits every old object after every pause. *)
let where st (r : R.t) obj =
  Printf.sprintf "object %d @0x%x in %s" (O.id st obj) (O.addr st obj)
    (region_name r)

(* One live object, reached through the region that stores it. *)
let check_live_object ctx heap st (r : R.t) obj =
  let addr = O.addr st obj in
  if not (R.contains r addr) then
    violation ctx "%s: recorded in a region that does not contain it"
      (where st r obj);
  let bound = H.find heap addr in
  if bound = O.none then
    violation ctx "%s: address not bound in the address table"
      (where st r obj)
  else if bound <> obj then
    if O.is_live st bound then
      violation ctx "%s: address table binds a different object (id %d)"
        (where st r obj) (O.id st bound)
    else
      violation ctx "%s: address table binds freed handle %d"
        (where st r obj) bound;
  if O.forward st obj <> Simheap.Layout.null then
    violation ctx "%s: forwarding pointer 0x%x survived the pause"
      (where st r obj) (O.forward st obj);
  if O.cached st obj then
    violation ctx "%s: still marked cached after all pairs flushed"
      (where st r obj);
  if O.phys st obj <> addr then
    violation ctx "%s: phys 0x%x differs from addr after flush"
      (where st r obj) (O.phys st obj);
  for i = 0 to O.nfields st obj - 1 do
    let target = O.field st obj i in
    if unbound heap target then
      violation ctx "%s: field %d dangles (0x%x unbound)" (where st r obj) i
        target
  done

let check_old_region ctx heap (r : R.t) =
  let st = H.store heap in
  if r.R.in_cset then
    violation ctx "%s: old region still marked in_cset" (region_name r);
  if r.R.stolen_from then
    violation ctx "%s: old region still marked stolen_from" (region_name r);
  let used = ref 0 in
  Simstats.Ivec.iter
    (fun obj ->
      if not (O.is_live st obj) then
        (* A freed block's words are stale: report it and read no more. *)
        violation ctx "%s: lists freed handle %d" (region_name r) obj
      else begin
        used := !used + O.size st obj;
        check_live_object ctx heap st r obj
      end)
    r.R.objs;
  if !used <> R.used_bytes r then
    violation ctx "%s: used_bytes %d but objects sum to %d bytes"
      (region_name r) (R.used_bytes r) !used;
  Simstats.Ivec.iter
    (fun slot ->
      let holder = O.slot_holder slot in
      if not (O.is_live st holder) then
        violation ctx "%s: remset entry names freed holder handle %d"
          (region_name r) holder
      else
        let referent = O.slot_referent st slot in
        if unbound heap referent then
          violation ctx "%s: remset entry dangles (0x%x unbound)"
            (region_name r) referent)
    r.R.remset

(* Full scans of very large header maps would dominate small test
   pauses; past this size trust the occupancy counter (which
   [clear_range] keeps exact) and skip the ground-truth sweep. *)
let full_scan_limit = 1 lsl 21

let check_header_map ctx gc =
  match Nvmgc.Young_gc.header_map gc with
  | None -> ()
  | Some map ->
      let occupied = Nvmgc.Header_map.occupied map in
      if occupied <> 0 then
        violation ctx "header map: %d entries still occupied after cleanup"
          occupied;
      if Nvmgc.Header_map.size map <= full_scan_limit then begin
        let nonzero = Nvmgc.Header_map.nonzero_entries map in
        if nonzero <> 0 then
          violation ctx "header map: %d non-zero entries found by scan"
            nonzero
      end

(** Walk the heap of [gc] and return every invariant violation found
    (empty list = heap is well-formed).  Intended to run right after
    {!Nvmgc.Young_gc.collect} returns. *)
let run gc =
  let ctx = { msgs = []; count = 0 } in
  let heap = Nvmgc.Young_gc.heap gc in
  let st = H.store heap in
  let live_in_regions = ref 0 in
  H.iter_regions
    (fun (r : R.t) ->
      match r.R.kind with
      | R.Free -> check_free_region ctx r
      | R.Old ->
          live_in_regions := !live_in_regions + Simstats.Ivec.length r.R.objs;
          check_old_region ctx heap r
      | (R.Eden | R.Survivor | R.Cache) as k ->
          violation ctx "%s: %s region survived the pause" (region_name r)
            (R.kind_name k))
    heap;
  (* Every binding is reachable through exactly one old region's object
     list: per-object checks above give objs -> bindings injectivity, and
     the count equality closes the bijection. *)
  if !live_in_regions <> H.live_objects heap then
    violation ctx
      "address table holds %d bindings but old regions record %d objects"
      (H.live_objects heap) !live_in_regions;
  (* Every live handle is bound exactly once: bindings name live handles
     (below), so equal counts leave no live handle unbound. *)
  if O.live st <> H.live_objects heap then
    violation ctx
      "object store holds %d live objects but the address table %d bindings"
      (O.live st) (H.live_objects heap);
  H.iter_bindings
    (fun addr obj ->
      if not (O.is_live st obj) then
        violation ctx "binding 0x%x names freed handle %d" addr obj
      else if O.addr st obj <> addr then
        violation ctx "binding 0x%x names object %d whose addr is 0x%x" addr
          (O.id st obj) (O.addr st obj)
      else if not (H.in_heap_range heap addr) then
        violation ctx "binding 0x%x (object %d) outside the heap range" addr
          (O.id st obj)
      else
        let r = H.region_of_addr heap addr in
        if r.R.kind <> R.Old then
          violation ctx "binding 0x%x (object %d) lives in a %s region" addr
            (O.id st obj) (R.kind_name r.R.kind))
    heap;
  (* Scratch pool: every DRAM cache region must have been released. *)
  let free_scratch = H.free_cache_regions heap in
  let total_scratch = H.scratch_regions heap in
  if free_scratch <> total_scratch then
    violation ctx "scratch pool: %d of %d cache regions not released"
      (total_scratch - free_scratch) total_scratch;
  H.iter_scratch_regions
    (fun (r : R.t) ->
      if r.R.kind <> R.Free then
        violation ctx "%s: scratch region not reset after the pause"
          (region_name r))
    heap;
  (* Roots must point at live bindings (or null). *)
  Simstats.Vec.iter
    (fun (root : O.root) ->
      let target = root.O.target in
      if target <> Simheap.Layout.null then begin
        let obj = H.find heap target in
        if obj = O.none then
          violation ctx "root %d dangles (0x%x unbound)" root.O.root_id target
        else if not (O.is_live st obj) then
          violation ctx "root %d names freed handle %d" root.O.root_id obj
      end)
    (H.roots heap);
  check_header_map ctx gc;
  let msgs = List.rev ctx.msgs in
  if ctx.count > max_messages then
    msgs
    @ [
        Printf.sprintf "... and %d further violations suppressed"
          (ctx.count - max_messages);
      ]
  else msgs
