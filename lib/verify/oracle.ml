(** Reference oracle collector.

    A deliberately dumb single-threaded semispace copy — no write cache,
    no header map, no stealing, no cost model.  Whatever the production
    engine's optimizations do to the {e timing}, the surviving object set,
    their sizes, and the post-pause reference graph must match this oracle
    exactly; {!diff} checks that after the pause completes.

    The oracle collects inside {!snapshot}, which runs at the start of
    {!Nvmgc.Young_gc.collect} before any evacuation work: the live heap is
    still the pre-pause heap, so the closure runs on it directly and only
    its outcome is kept, as ints.  Nothing is deep-copied.  Liveness
    mirrors the engine's seeding rule: the transitive closure from the
    collection-set remembered sets and the non-null mutator roots,
    traversing only objects inside the collection set. *)

module R = Simheap.Region
module O = Simheap.Objmodel
module H = Simheap.Heap
module V = Simstats.Vec
module IV = Simstats.Ivec

(* How a reference field (or anchor slot) relates to the young generation
   of the snapshotted pause, as an int: [0] null, [-(id + 1)] the young
   object [id] (named by its stable id — the copy may go anywhere), and a
   positive value an address outside the collection set, which must not
   move. *)
let young_class id = -(id + 1)

let class_name c =
  if c = Simheap.Layout.null then "null"
  else if c < 0 then Printf.sprintf "young:%d" (-c - 1)
  else Printf.sprintf "out:0x%x" c

(* [young.(id - lo)]: [not_young], [dead] (young but unreachable), or the
   survivor's ordinal. *)
let not_young = -2
let dead = -1

type snapshot = {
  lo : int;  (** smallest young id *)
  young : int array;
  sizes : int array;  (** ordinal -> size *)
  first : int array;
      (** survivor [k]'s field classes are [classes.(first.(k))] up to,
          excluding, [classes.(first.(k + 1))] *)
  classes : int array;
  field_anchors : int array;  (** cset remset field slots *)
  root_anchors : O.root array;  (** non-null roots *)
  anchor_classes : int array;
      (** each anchor's pre-pause class: the field anchors', then the
          roots' *)
}

let dummy_root : O.root = { O.root_id = -1; target = Simheap.Layout.null }

let in_young_region heap addr =
  H.in_heap_range heap addr
  &&
  match (H.region_of_addr heap addr).R.kind with
  | R.Eden | R.Survivor -> true
  | R.Free | R.Old | R.Cache -> false

let snapshot gc =
  let heap = Nvmgc.Young_gc.heap gc in
  let st = H.store heap in
  let young_objs = IV.create () in
  let lo = ref max_int and hi = ref (-1) in
  H.iter_bindings
    (fun addr obj ->
      if in_young_region heap addr then begin
        IV.push young_objs obj;
        lo := Int.min !lo (O.id st obj);
        hi := Int.max !hi (O.id st obj)
      end)
    heap;
  let lo = if !hi < 0 then 0 else !lo in
  let young = Array.make (!hi - lo + 1) not_young in
  IV.iter (fun obj -> young.(O.id st obj - lo) <- dead) young_objs;
  (* Breadth-first: [survivors] is both the result and the queue, and
     classifying a young referent marks it reached. *)
  let survivors = IV.create () in
  let classify addr =
    let obj = if in_young_region heap addr then H.find heap addr else O.none in
    if obj = O.none then addr
    else begin
      let id = O.id st obj in
      let k = id - lo in
      if young.(k) = dead then begin
        young.(k) <- IV.length survivors;
        IV.push survivors obj
      end;
      young_class id
    end
  in
  let field_anchors = IV.create () and root_anchors = V.create dummy_root in
  let anchor_classes = IV.create () in
  List.iter
    (fun (r : R.t) ->
      IV.iter
        (fun slot ->
          IV.push field_anchors slot;
          IV.push anchor_classes (classify (O.slot_referent st slot)))
        r.R.remset)
    (H.young_regions heap);
  V.iter
    (fun (root : O.root) ->
      if root.O.target <> Simheap.Layout.null then begin
        V.push root_anchors root;
        IV.push anchor_classes (classify root.O.target)
      end)
    (H.roots heap);
  let sizes = IV.create () and first = IV.create () and classes = IV.create () in
  let k = ref 0 in
  while !k < IV.length survivors do
    let obj = IV.get survivors !k in
    IV.push sizes (O.size st obj);
    IV.push first (IV.length classes);
    for i = 0 to O.nfields st obj - 1 do
      IV.push classes (classify (O.field st obj i))
    done;
    incr k
  done;
  IV.push first (IV.length classes);
  {
    lo;
    young;
    sizes = IV.to_array sizes;
    first = IV.to_array first;
    classes = IV.to_array classes;
    field_anchors = IV.to_array field_anchors;
    root_anchors = V.to_array root_anchors;
    anchor_classes = IV.to_array anchor_classes;
  }

(* ------------------------------------------------------------------ *)
(* Diffing the real post-pause heap against the oracle.                *)

type ctx = { mutable msgs : string list; mutable count : int }

let max_messages = 50

let mismatch ctx fmt =
  Format.kasprintf
    (fun msg ->
      ctx.count <- ctx.count + 1;
      if ctx.count <= max_messages then ctx.msgs <- msg :: ctx.msgs)
    fmt

let entry snap id =
  let k = id - snap.lo in
  if k >= 0 && k < Array.length snap.young then snap.young.(k) else not_young

(* Classify a post-pause referent the way the snapshot classified a
   pre-pause one: objects young when the pause began by id, everything
   else by (stable) address. *)
let post_class snap heap addr =
  if addr = Simheap.Layout.null then addr
  else
    let obj = H.find heap addr in
    if obj = O.none then addr
    else
      let id = O.id (H.store heap) obj in
      if entry snap id <> not_young then young_class id else addr

(* Size and per-field reference graph of the real copy of survivor [k]. *)
let check_survivor ctx snap heap obj k =
  let st = H.store heap in
  let id = O.id st obj in
  if O.size st obj <> snap.sizes.(k) then
    mismatch ctx "object %d: size %d after evacuation, %d before" id
      (O.size st obj) snap.sizes.(k);
  let base = snap.first.(k) in
  let expected = snap.first.(k + 1) - base in
  let nfields = O.nfields st obj in
  if nfields <> expected then
    mismatch ctx "object %d: field count changed (%d -> %d)" id expected
      nfields
  else
    for i = 0 to expected - 1 do
      let want = snap.classes.(base + i) in
      let got = post_class snap heap (O.field st obj i) in
      if got <> want then
        mismatch ctx "object %d field %d: oracle %s, collector %s" id i
          (class_name want) (class_name got)
    done

(** Diff the heap of [gc] (after the pause finished) against what the
    oracle computed from the pre-pause [snap].  [pause] cross-checks the
    reported copy counters.  Returns mismatch messages (empty = the real
    collector agrees with the oracle exactly).  [snap] is not modified. *)
let diff snap gc (pause : Nvmgc.Gc_stats.pause) =
  let heap = Nvmgc.Young_gc.heap gc in
  let st = H.store heap in
  let ctx = { msgs = []; count = 0 } in
  (* The real survivors are the post-pause bindings whose id was young
     when the pause began; the surviving set must match the oracle's in
     both directions. *)
  let seen = Bytes.make (Array.length snap.young) '\000' in
  H.iter_bindings
    (fun _addr obj ->
      let id = O.id st obj in
      let e = entry snap id in
      if e = not_young then ()
      else if Bytes.get seen (id - snap.lo) <> '\000' then
        mismatch ctx "object %d survives at two addresses" id
      else begin
        Bytes.set seen (id - snap.lo) '\001';
        if e = dead then
          mismatch ctx "object %d is dead per the oracle but was evacuated" id
        else check_survivor ctx snap heap obj e
      end)
    heap;
  Array.iteri
    (fun k e ->
      if e >= 0 && Bytes.get seen k = '\000' then
        mismatch ctx "object %d is live per the oracle but was not evacuated"
          (k + snap.lo))
    snap.young;
  (* Anchors (remset slots and roots) must have been retargeted to the
     copy of exactly the object they referenced before the pause, and a
     referent outside the collection set must not have moved. *)
  let check_anchor i post =
    let want = snap.anchor_classes.(i) in
    let got = post_class snap heap post in
    if got = want then ()
    else if want > 0 && got > 0 then
      mismatch ctx "anchor slot: non-young referent moved (0x%x -> 0x%x)"
        want got
    else
      mismatch ctx "anchor slot: oracle %s, collector %s (post 0x%x)"
        (class_name want) (class_name got) post
  in
  let nf = Array.length snap.field_anchors in
  Array.iteri
    (fun i slot -> check_anchor i (O.slot_referent st slot))
    snap.field_anchors;
  Array.iteri
    (fun i (root : O.root) -> check_anchor (nf + i) root.O.target)
    snap.root_anchors;
  (* The pause's copy counters must account for exactly the oracle's
     survivors. *)
  let oracle_objects = Array.length snap.sizes in
  let oracle_bytes = Array.fold_left ( + ) 0 snap.sizes in
  if pause.Nvmgc.Gc_stats.objects_copied <> oracle_objects then
    mismatch ctx "pause reports %d objects copied, oracle expects %d"
      pause.Nvmgc.Gc_stats.objects_copied oracle_objects;
  if pause.Nvmgc.Gc_stats.bytes_copied <> oracle_bytes then
    mismatch ctx "pause reports %d bytes copied, oracle expects %d"
      pause.Nvmgc.Gc_stats.bytes_copied oracle_bytes;
  let msgs = List.rev ctx.msgs in
  if ctx.count > max_messages then
    msgs
    @ [
        Printf.sprintf "... and %d further mismatches suppressed"
          (ctx.count - max_messages);
      ]
  else msgs
