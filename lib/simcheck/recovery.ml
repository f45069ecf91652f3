(** The crash-recovery oracle: what must hold on the simulated NVM image
    after a schedule-injected power failure mid-pause.

    The crash model (DESIGN.md §13): DRAM dies — write-cache staging
    regions, the header map, and every unflushed copy are gone; LLC-dirty
    lines die with the cache; only bytes the memory model actually wrote
    to NVM (non-temporal stores immediately, cacheable stores once their
    line was written back) survive.  "Reported durable" means
    {!Nvmgc.Write_cache} marked the pair [flushed] — the moment the §4.2
    flush protocol promises the shadow region is safe.

    Three obligations over the frozen crash-time heap:

    (a) every shadow region reported durable is byte-intact on the NVM
        image (no line unwritten or LLC-dirty) and internally consistent:
        its objects are un-cached at their final addresses, still bound,
        and reference nothing inside the collection set;

    (b) no forwarding state leaks into the durable image: no write ever
        landed in a shadow after its flush was reported, and the (lost)
        DRAM header map only ever described collection-set addresses;

    (c) the surviving old-space graph — old regions outside the
        collection set plus the durable shadows — is a closed subgraph
        of the pre-crash live graph, placement-erased. *)

module R = Simheap.Region
module O = Simheap.Objmodel
module H = Simheap.Heap
module G = Verify.Graph

(* Deterministic message accumulation, oldest first. *)
type acc = { mutable msgs : string list }

let add acc fmt = Format.kasprintf (fun m -> acc.msgs <- m :: acc.msgs) fmt

(* Cap per-obligation detail so a pathological image cannot produce an
   unbounded report (the shrinker re-runs the oracle many times). *)
let max_detail = 8

let capped acc shown total what =
  if total > shown then
    add acc "... and %d further %s suppressed" (total - shown) what

(* ------------------------------------------------------------------ *)
(* (a) durable shadows: byte-intact and internally consistent          *)

let check_durable_pair acc heap memory (pair : Nvmgc.Write_cache.pair) =
  let shadow = pair.Nvmgc.Write_cache.shadow in
  let used = R.used_bytes shadow in
  let undurable =
    Memsim.Memory.nvm_undurable_in memory ~base:shadow.R.base ~bytes:used
  in
  let n = List.length undurable in
  List.iteri
    (fun i addr ->
      if i < max_detail then
        add acc
          "durable shadow region %d: line 0x%x did not survive the crash \
           (never written to NVM, or dirty in the LLC)"
          shadow.R.idx addr)
    undurable;
  capped acc (min n max_detail) n "lost lines";
  let st = H.store heap in
  Simstats.Ivec.iter
    (fun obj ->
      let addr = O.addr st obj and id = O.id st obj in
      if R.contains shadow addr then begin
        if O.cached st obj then
          add acc
            "durable shadow region %d: object %d still marked cached (its \
             bytes live in DRAM, which the crash destroyed)"
            shadow.R.idx id;
        if O.phys st obj <> addr then
          add acc
            "durable shadow region %d: object %d physically at 0x%x, not its \
             final address 0x%x"
            shadow.R.idx id (O.phys st obj) addr;
        (match H.find heap addr with
        | bound when bound = obj -> ()
        | bound when bound = O.none ->
            add acc
              "durable shadow region %d: object %d unbound at its final \
               address 0x%x"
              shadow.R.idx id addr
        | _ ->
            add acc
              "durable shadow region %d: address 0x%x bound to a different \
               object than %d"
              shadow.R.idx addr id);
        for i = 0 to O.nfields st obj - 1 do
          let target = O.field st obj i in
          if
            target <> Simheap.Layout.null
            && H.in_heap_range heap target
            && (H.region_of_addr heap target).R.in_cset
          then
            add acc
              "durable shadow region %d: object %d field %d points into the \
               collection set (0x%x) — its referent needed forwarding state \
               the crash destroyed"
              shadow.R.idx id i target
        done
      end)
    shadow.R.objs

(* ------------------------------------------------------------------ *)
(* (b) no forwarding/header-map leakage past the crash                 *)

let check_no_leak acc heap (crash : Nvmgc.Evacuation.crash_state) =
  let writes = List.rev crash.Nvmgc.Evacuation.crash_post_flush_writes in
  let n = List.length writes in
  List.iteri
    (fun i (region_idx, addr) ->
      if i < max_detail then
        add acc
          "write at 0x%x landed in shadow region %d after its flush was \
           reported complete"
          addr region_idx)
    writes;
  capped acc (min n max_detail) n "post-flush writes";
  match crash.Nvmgc.Evacuation.crash_header_map with
  | None -> ()
  | Some map ->
      (* The DRAM forwarding table dies in the crash; that is only safe
         if it never described anything outside the collection set
         (whose regions are discarded by recovery anyway). *)
      for i = 0 to Nvmgc.Header_map.size map - 1 do
        let key = Nvmgc.Header_map.key_at map i in
        if key <> 0 then begin
          let leaked =
            (not (H.in_heap_range heap key))
            || not (H.region_of_addr heap key).R.in_cset
          in
          if leaked then
            add acc
              "header-map entry %d keys 0x%x, an address outside the \
               collection set — forwarding state leaked past the crash"
              i key
        end
      done

(* ------------------------------------------------------------------ *)
(* (c) the surviving old-space graph is closed within the pre-crash
   live graph                                                          *)

let surviving_objects heap (crash : Nvmgc.Evacuation.crash_state) =
  let durable_shadow_idx = Hashtbl.create 8 in
  (match crash.Nvmgc.Evacuation.crash_write_cache with
  | None -> ()
  | Some wc ->
      Simstats.Vec.iter
        (fun (pair : Nvmgc.Write_cache.pair) ->
          if pair.Nvmgc.Write_cache.flushed then
            Hashtbl.replace durable_shadow_idx
              pair.Nvmgc.Write_cache.shadow.R.idx ())
        (Nvmgc.Write_cache.pairs wc));
  let st = H.store heap in
  let objs = Simstats.Ivec.create () in
  H.iter_regions
    (fun (region : R.t) ->
      let survives =
        (region.R.kind = R.Old && not region.R.in_cset)
        || Hashtbl.mem durable_shadow_idx region.R.idx
      in
      if survives then
        Simstats.Ivec.iter
          (fun obj ->
            if R.contains region (O.addr st obj) then
              Simstats.Ivec.push objs obj)
          region.R.objs)
    heap;
  Simstats.Ivec.to_array objs

(* ------------------------------------------------------------------ *)

let check ~pre ~heap ~memory (crash : Nvmgc.Evacuation.crash_state) =
  let acc = { msgs = [] } in
  if not (Memsim.Memory.durability_tracking memory) then
    add acc
      "recovery oracle ran without durability tracking armed — \
       byte-survivability cannot be checked";
  (match crash.Nvmgc.Evacuation.crash_write_cache with
  | None -> ()
  | Some wc ->
      Simstats.Vec.iter
        (fun (pair : Nvmgc.Write_cache.pair) ->
          if pair.Nvmgc.Write_cache.flushed then
            check_durable_pair acc heap memory pair)
        (Nvmgc.Write_cache.pairs wc));
  check_no_leak acc heap crash;
  let sub = G.capture_objects heap (surviving_objects heap crash) in
  List.iter (fun m -> acc.msgs <- m :: acc.msgs) (G.closed_within ~pre sub);
  List.rev acc.msgs
