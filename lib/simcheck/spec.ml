(** Seeded heap-shape specifications: the fuzzer's generator and shrinker.

    A specification is a device-free description of a young generation —
    object sizes, reference fields (cycles, sharing and self-references
    allowed), old-space back-references and the anchors (mutator roots and
    remembered-set slots) that make objects reachable.  Objects no anchor
    reaches are garbage by construction, which is exactly what a collector
    must prove it can drop.

    {!instantiate} realizes a specification on a fresh heap.  Because the
    heap's object-id counter is deterministic, instantiating the same
    specification twice yields identical ids — the property
    {!Verify.Graph} needs for cross-configuration differential
    comparison.  {!shrink} greedily minimizes a failing specification
    while preserving the failure, for replayable small reproducers. *)

module R = Simheap.Region
module O = Simheap.Objmodel
module H = Simheap.Heap

type field_target =
  | Null
  | Young of int  (** index of another specified object *)
  | Old of int  (** index of an old-space holder object *)

type obj_spec = { size : int; fields : field_target array }

(** What makes a young object reachable. *)
type anchor =
  | Root of int  (** mutator root targeting object [i] *)
  | Remset of int  (** old-region holder slot targeting object [i] *)

type t = { objects : obj_spec array; anchors : anchor array }

let region_bytes = 8192
let holder_fields = 8

let holder_bytes =
  Simheap.Layout.header_bytes + (holder_fields * Simheap.Layout.ref_bytes)

let min_size nfields =
  Simheap.Layout.header_bytes + (nfields * Simheap.Layout.ref_bytes)

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)

let gen_field rng ~n_objects ~n_holders =
  let u = Simstats.Prng.float rng 1.0 in
  if u < 0.15 then Null
  else if u < 0.25 then Old (Simstats.Prng.int rng n_holders)
  else Young (Simstats.Prng.int rng n_objects)

let gen_object rng ~n_objects ~n_holders =
  let nfields = Simstats.Prng.int rng 5 in
  (* Mostly small objects; ~1 in 8 gets a large primitive payload so the
     write-cache limit and the PS direct-copy threshold both trigger. *)
  let payload =
    if Simstats.Prng.int rng 8 = 0 then
      8 * (64 + Simstats.Prng.int rng 128)
    else 8 * Simstats.Prng.int rng 17
  in
  let size = min_size nfields + payload in
  let fields =
    Array.init nfields (fun _ -> gen_field rng ~n_objects ~n_holders)
  in
  { size; fields }

let generate rng ~max_objects =
  let n = 1 + Simstats.Prng.int rng max_objects in
  let n_holders = 1 + Simstats.Prng.int rng 4 in
  let objects =
    Array.init n (fun _ -> gen_object rng ~n_objects:n ~n_holders)
  in
  let n_anchors = 1 + Simstats.Prng.int rng (max 1 (n / 2)) in
  let anchors =
    Array.init n_anchors (fun _ ->
        let target = Simstats.Prng.int rng n in
        if Simstats.Prng.bool rng then Root target else Remset target)
  in
  { objects; anchors }

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)

type instance = { heap : H.t; objects : O.t array; holders : O.t array }

let anchor_target = function Root i | Remset i -> i

(* The sizing passes run once per fuzz execution: plain loops with
   [Int.max] (the polymorphic [max] is a C compare call in this build). *)
let remset_count (spec : t) =
  let n = ref 0 in
  for i = 0 to Array.length spec.anchors - 1 do
    match spec.anchors.(i) with Remset _ -> incr n | Root _ -> ()
  done;
  !n

let holders_needed (spec : t) =
  let max_old = ref 0 in
  for i = 0 to Array.length spec.objects - 1 do
    let fields = spec.objects.(i).fields in
    for k = 0 to Array.length fields - 1 do
      match fields.(k) with
      | Old h -> max_old := Int.max !max_old (h + 1)
      | Null | Young _ -> ()
    done
  done;
  let for_slots = (remset_count spec + holder_fields - 1) / holder_fields in
  Int.max 1 (Int.max !max_old for_slots)

(* Mirror of the bump-allocation the heap performs, to size the region
   pool before creating it. *)
let eden_regions_needed (spec : t) =
  let regions = ref 1 and remaining = ref region_bytes in
  for i = 0 to Array.length spec.objects - 1 do
    let size = spec.objects.(i).size in
    if size > region_bytes then
      failwith "Simcheck.Spec: object larger than a region";
    if size > !remaining then begin
      incr regions;
      remaining := region_bytes
    end;
    remaining := !remaining - size
  done;
  !regions

let geometry spec ~n_holders =
  let eden = eden_regions_needed spec in
  let holder_regions =
    Int.max 1 (((n_holders * holder_bytes) + region_bytes - 1) / region_bytes)
  in
  {
    H.default_config with
    H.region_bytes;
    (* eden + worst-case survivor/shadow regions + holders + slack *)
    heap_regions = (2 * eden) + holder_regions + 16;
    dram_scratch_regions = eden + 16;
  }

let heap_config spec = geometry spec ~n_holders:(holders_needed spec)

let instantiate ?heap spec =
  let n_holders = holders_needed spec in
  let config = geometry spec ~n_holders in
  let heap =
    match heap with
    | None -> H.create config
    | Some heap ->
        let c = H.config heap in
        if
          c.H.heap_regions <> config.H.heap_regions
          || c.H.dram_scratch_regions <> config.H.dram_scratch_regions
          || c.H.region_bytes <> config.H.region_bytes
          || c.H.heap_space <> config.H.heap_space
          || c.H.young_space <> config.H.young_space
        then invalid_arg "Simcheck.Spec.instantiate: heap of another geometry";
        if
          H.live_objects heap <> 0
          || Simstats.Vec.length (H.roots heap) <> 0
          || H.free_regions heap <> c.H.heap_regions
        then invalid_arg "Simcheck.Spec.instantiate: heap not fresh or reset";
        heap
  in
  let fresh_region kind =
    match H.alloc_region heap kind with
    | Some r -> r
    | None -> failwith "Simcheck.Spec: heap exhausted during instantiation"
  in
  let alloc_into kind region_ref ~size ~nfields =
    let obj = H.new_object heap !region_ref ~size ~nfields in
    if obj <> O.none then obj
    else begin
      region_ref := fresh_region kind;
      let obj = H.new_object heap !region_ref ~size ~nfields in
      if obj = O.none then failwith "Simcheck.Spec: object larger than a region";
      obj
    end
  in
  let st = H.store heap in
  (* Holders first, then the young objects, so ids depend only on the
     specification. *)
  let old_region = ref (fresh_region R.Old) in
  let holders =
    Array.init n_holders (fun _ ->
        alloc_into R.Old old_region ~size:holder_bytes ~nfields:holder_fields)
  in
  let eden_region = ref (fresh_region R.Eden) in
  let objects =
    Array.map
      (fun os ->
        alloc_into R.Eden eden_region ~size:os.size
          ~nfields:(Array.length os.fields))
      spec.objects
  in
  for i = 0 to Array.length spec.objects - 1 do
    let targets = spec.objects.(i).fields and obj = objects.(i) in
    for k = 0 to Array.length targets - 1 do
      O.set_field st obj k
        (match targets.(k) with
        | Null -> Simheap.Layout.null
        | Young j -> O.addr st objects.(j)
        | Old h -> O.addr st holders.(h))
    done
  done;
  let cursor = ref 0 in
  Array.iter
    (fun anchor ->
      let addr = O.addr st objects.(anchor_target anchor) in
      match anchor with
      | Root _ -> ignore (H.new_root heap addr)
      | Remset _ ->
          let slot =
            O.field_slot holders.(!cursor / holder_fields)
              (!cursor mod holder_fields)
          in
          incr cursor;
          O.slot_write st slot addr;
          Simstats.Ivec.push (H.region_of_addr heap addr).R.remset slot)
    spec.anchors;
  { heap; objects; holders }

(* ------------------------------------------------------------------ *)
(* Pretty-printing (reproducer output)                                 *)

let pp_field ppf = function
  | Null -> Format.fprintf ppf "null"
  | Young j -> Format.fprintf ppf "obj %d" j
  | Old h -> Format.fprintf ppf "old %d" h

let pp ppf (spec : t) =
  Format.fprintf ppf "@[<v>%d objects, %d anchors@," (Array.length spec.objects)
    (Array.length spec.anchors);
  Array.iteri
    (fun i os ->
      Format.fprintf ppf "  object %d: %d bytes, fields [%a]@," i os.size
        (Format.pp_print_array
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           pp_field)
        os.fields)
    spec.objects;
  Format.fprintf ppf "  anchors: %a@]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf -> function
         | Root i -> Format.fprintf ppf "root->%d" i
         | Remset i -> Format.fprintf ppf "remset->%d" i))
    spec.anchors

let to_string spec = Format.asprintf "%a" pp spec

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

(* Remove objects with indices in [lo, hi); references to removed objects
   become null, indices above the range shift down, anchors on removed
   objects disappear. *)
let remove_range (spec : t) lo hi =
  let removed = hi - lo in
  let remap = function
    | Young j when j >= lo && j < hi -> Null
    | Young j when j >= hi -> Young (j - removed)
    | (Young _ | Null | Old _) as f -> f
  in
  let objects =
    Array.init
      (Array.length spec.objects - removed)
      (fun i ->
        let src = if i < lo then i else i + removed in
        let os = spec.objects.(src) in
        { os with fields = Array.map remap os.fields })
  in
  let anchors =
    Array.of_list
      (List.filter_map
         (fun a ->
           let i = anchor_target a in
           if i >= lo && i < hi then None
           else
             let i = if i >= hi then i - removed else i in
             Some (match a with Root _ -> Root i | Remset _ -> Remset i))
         (Array.to_list spec.anchors))
  in
  { objects; anchors }

let remove_anchor (spec : t) k =
  {
    spec with
    anchors =
      Array.of_list
        (List.filteri (fun i _ -> i <> k) (Array.to_list spec.anchors));
  }

let null_field (spec : t) i k =
  let objects = Array.copy spec.objects in
  let fields = Array.copy objects.(i).fields in
  fields.(k) <- Null;
  objects.(i) <- { (objects.(i)) with fields };
  { spec with objects }

let shrink_size (spec : t) i =
  let objects = Array.copy spec.objects in
  let os = objects.(i) in
  objects.(i) <- { os with size = min_size (Array.length os.fields) };
  { spec with objects }

(** Greedily minimize [spec] while [check] keeps returning [true] (i.e.
    the failure persists).  [budget] bounds the number of [check]
    evaluations; every accepted step strictly shrinks the spec, so the
    loop terminates regardless. *)
let shrink ~check ~budget (spec : t) =
  let current = ref spec in
  let try_candidate candidate =
    if !budget <= 0 then false
    else begin
      decr budget;
      if check candidate then begin
        current := candidate;
        true
      end
      else false
    end
  in
  (* Phase 1: delta-debugging-style chunk removal of objects. *)
  let chunk = ref (max 1 (Array.length spec.objects / 2)) in
  while !chunk >= 1 && !budget > 0 do
    let progress = ref true in
    while !progress && !budget > 0 do
      progress := false;
      let lo = ref 0 in
      while !lo < Array.length !current.objects && !budget > 0 do
        let hi = min (Array.length !current.objects) (!lo + !chunk) in
        if hi > !lo && try_candidate (remove_range !current !lo hi) then
          progress := true
        else lo := !lo + !chunk
      done
    done;
    chunk := !chunk / 2
  done;
  (* Phase 2: drop anchors one at a time. *)
  let k = ref 0 in
  while !k < Array.length !current.anchors && !budget > 0 do
    if not (try_candidate (remove_anchor !current !k)) then incr k
  done;
  (* Phase 3: null individual fields. *)
  Array.iteri
    (fun i os ->
      Array.iteri
        (fun f target ->
          match target with
          | Null -> ()
          | Young _ | Old _ ->
              if !budget > 0 && i < Array.length !current.objects then
                ignore (try_candidate (null_field !current i f)))
        os.fields)
    !current.objects;
  (* Phase 4: shrink payloads to the minimum size. *)
  Array.iteri
    (fun i _ ->
      if !budget > 0 && i < Array.length !current.objects then
        ignore (try_candidate (shrink_size !current i)))
    !current.objects;
  !current
