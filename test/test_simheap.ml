(* Tests for the simulated heap: layout, object model, regions and the
   heap region pool / address table. *)

module R = Simheap.Region
module O = Simheap.Objmodel
module H = Simheap.Heap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)

let test_layout_disjoint_ranges () =
  check_bool "heap below scratch" true
    (Simheap.Layout.heap_base < Simheap.Layout.dram_scratch_base);
  check_bool "scratch below roots" true
    (Simheap.Layout.dram_scratch_base < Simheap.Layout.root_base);
  check_bool "roots below header map" true
    (Simheap.Layout.root_base < Simheap.Layout.header_map_base);
  check_int "root addr stride" Simheap.Layout.ref_bytes
    (Simheap.Layout.root_addr 1 - Simheap.Layout.root_addr 0)

(* ------------------------------------------------------------------ *)
(* Objmodel                                                            *)

let test_obj_make () =
  let st = O.create_store ~max_object_bytes:256 in
  let o = O.alloc st ~id:1 ~addr:1000 ~size:48 ~nfields:2 in
  check_int "id" 1 (O.id st o);
  check_int "nfields" 2 (O.nfields st o);
  check_int "primitive bytes" (48 - 16 - 16) (O.primitive_bytes st o);
  check_bool "not an array" false (O.is_array st o);
  check_int "phys = addr initially" (O.addr st o) (O.phys st o);
  check_int "fields start null" Simheap.Layout.null (O.field st o 1);
  check_int "not forwarded" Simheap.Layout.null (O.forward st o);
  check_bool "not cached" false (O.cached st o);
  check_int "age 0" 0 (O.age st o);
  let arr = O.alloc st ~id:2 ~addr:2000 ~size:256 ~nfields:0 in
  check_bool "array" true (O.is_array st arr);
  check_int "first object keeps its words" 1000 (O.addr st o);
  Alcotest.check_raises "size below header + fields"
    (Invalid_argument "Objmodel.alloc: size too small for the field count")
    (fun () -> ignore (O.alloc st ~id:3 ~addr:3000 ~size:16 ~nfields:1))

let test_obj_field_addrs () =
  let st = O.create_store ~max_object_bytes:256 in
  let o = O.alloc st ~id:1 ~addr:1000 ~size:48 ~nfields:2 in
  check_int "field 0 after header" (1000 + 16) (O.field_addr st o 0);
  check_int "field 1" (1000 + 24) (O.field_addr st o 1);
  O.set_phys st o 5000;
  check_int "phys addr follows phys" (5000 + 16) (O.field_phys_addr st o 0);
  check_int "official addr unchanged" (1000 + 16) (O.field_addr st o 0)

let test_slots () =
  let st = O.create_store ~max_object_bytes:256 in
  ignore (O.alloc st ~id:0 ~addr:500 ~size:16 ~nfields:0);
  let holder = O.alloc st ~id:1 ~addr:1000 ~size:48 ~nfields:2 in
  O.set_field st holder 0 77;
  let slot = O.field_slot holder 1 in
  check_bool "field slots are even" true (slot land 1 = 0);
  check_int "holder decodes" holder (O.slot_holder slot);
  check_int "field decodes" 1 (O.slot_field slot);
  check_int "field referent" 77 (O.slot_referent st (O.field_slot holder 0));
  O.slot_write st slot 99;
  check_int "field updated" 99 (O.field st holder 1);
  check_int "slot addr is the field's phys addr" (1000 + 24) (O.slot_addr st slot);
  let root : O.root = { O.root_id = 3; target = 55 } in
  check_int "root slot addr" (Simheap.Layout.root_addr 3) (O.root_addr root)

(* Freed blocks return to exact-size free lists, most recent first; a
   cleared store hands out a fresh store's handles. *)
let test_store_recycling () =
  let st = O.create_store ~max_object_bytes:256 in
  let a = O.alloc st ~id:0 ~addr:100 ~size:32 ~nfields:2 in
  let b = O.alloc st ~id:1 ~addr:200 ~size:32 ~nfields:2 in
  let c = O.alloc st ~id:2 ~addr:300 ~size:32 ~nfields:1 in
  O.set_field st b 1 42;
  check_int "live" 3 (O.live st);
  O.free st a;
  O.free st b;
  check_bool "freed handle not live" false (O.is_live st b);
  check_bool "others live" true (O.is_live st c);
  Alcotest.check_raises "double free"
    (Invalid_argument "Objmodel.free: handle not live") (fun () -> O.free st a);
  check_int "live after frees" 1 (O.live st);
  let d = O.alloc st ~id:3 ~addr:400 ~size:24 ~nfields:1 in
  check_bool "other field counts carve a new block" true (d <> a && d <> b);
  let e = O.alloc st ~id:4 ~addr:500 ~size:40 ~nfields:2 in
  check_int "most recently freed block first" b e;
  check_int "reused block is fresh" Simheap.Layout.null (O.field st e 1);
  check_int "reused block takes the new id" 4 (O.id st e);
  check_int "capacity counts carved blocks" 4 (O.capacity st);
  O.clear st;
  check_int "cleared: nothing live" 0 (O.live st);
  check_int "cleared: nothing carved" 0 (O.capacity st);
  check_bool "cleared handle not live" false (O.is_live st c);
  let fresh = O.create_store ~max_object_bytes:256 in
  List.iter
    (fun nfields ->
      check_int "cleared store hands out fresh handles"
        (O.alloc fresh ~id:0 ~addr:8 ~size:64 ~nfields)
        (O.alloc st ~id:0 ~addr:8 ~size:64 ~nfields))
    [ 2; 1; 2; 0 ]

(* A block that does not fit the rest of a chunk starts the next one;
   no handle in the skipped tail, in a chunk's last words or past the
   top is live, even where a cleared store's kept chunk held blocks of
   an earlier life. *)
let test_store_skipped_tail () =
  let st = O.create_store ~max_object_bytes:256 in
  let c = O.chunk_words st in
  let hdr = 6 in
  let block words =
    O.alloc st ~id:0 ~addr:0 ~size:(8 * words) ~nfields:(words - hdr)
  in
  (* Life 1 fills most of chunk 0 with 16-word blocks. *)
  let old = List.init (c / 16 * 3 / 4) (fun _ -> block 16) in
  let stale = List.nth old (List.length old - 1) in
  check_bool "earlier life's block lies in the second half" true
    (stale >= c / 2 && stale < c);
  O.clear st;
  (* Life 2: half a chunk, then a full one, which skips the tail. *)
  let half = block (c / 2) in
  check_int "first block at 0" 0 half;
  let full = block c in
  check_int "full block starts chunk 1" c full;
  check_bool "full block live" true (O.is_live st full);
  check_bool "earlier life's handle in the skipped tail" false
    (O.is_live st stale);
  check_bool "skipped tail" false (O.is_live st (c / 2 + (c / 4)));
  check_bool "chunk's last words" false (O.is_live st (c - 1));
  check_bool "inside a block's fields" false (O.is_live st (half + hdr));
  check_bool "past the top" false (O.is_live st ((2 * c) + 1));
  check_bool "negative" false (O.is_live st (-1));
  O.free st full;
  check_bool "freed full block" false (O.is_live st full)

(* ------------------------------------------------------------------ *)
(* Region                                                              *)

let test_region_alloc () =
  let r = R.create ~idx:0 ~base:1000 ~bytes:256 ~space:Memsim.Access.Nvm ~kind:R.Eden in
  Alcotest.(check (option int)) "first alloc at base" (Some 1000) (R.alloc r 100);
  Alcotest.(check (option int)) "bump" (Some 1100) (R.alloc r 100);
  check_int "used" 200 (R.used_bytes r);
  check_int "free" 56 (R.free_bytes r);
  Alcotest.(check (option int)) "too big" None (R.alloc r 100);
  Alcotest.(check (option int)) "exact fit" (Some 1200) (R.alloc r 56);
  check_bool "full" true (R.is_full r)

let test_region_contains_reset () =
  let r = R.create ~idx:0 ~base:1000 ~bytes:256 ~space:Memsim.Access.Nvm ~kind:R.Eden in
  check_bool "contains base" true (R.contains r 1000);
  check_bool "contains last" true (R.contains r 1255);
  check_bool "not past end" false (R.contains r 1256);
  check_bool "not before" false (R.contains r 999);
  ignore (R.alloc r 64);
  r.R.stolen_from <- true;
  r.R.in_cset <- true;
  R.reset r;
  check_int "reset top" 0 (R.used_bytes r);
  check_bool "reset kind" true (r.R.kind = R.Free);
  check_bool "reset stolen" false r.R.stolen_from;
  check_bool "reset cset" false r.R.in_cset

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let small_config =
  {
    H.region_bytes = 4096;
    heap_regions = 16;
    dram_scratch_regions = 4;
    heap_space = Memsim.Access.Nvm;
    young_space = None;
  }

let test_heap_region_pool () =
  let h = H.create small_config in
  check_int "all free initially" 16 (H.free_regions h);
  let r = Option.get (H.alloc_region h R.Eden) in
  check_bool "eden kind" true (r.R.kind = R.Eden);
  check_bool "eden on NVM" true (r.R.space = Memsim.Access.Nvm);
  check_int "one taken" 15 (H.free_regions h);
  H.release_region h r;
  check_int "released" 16 (H.free_regions h);
  (* exhaust *)
  let taken = List.init 16 (fun _ -> Option.get (H.alloc_region h R.Old)) in
  Alcotest.(check bool) "exhausted" true (H.alloc_region h R.Eden = None);
  List.iter (H.release_region h) taken

let test_heap_young_space_override () =
  let h = H.create { small_config with young_space = Some Memsim.Access.Dram } in
  let eden = Option.get (H.alloc_region h R.Eden) in
  check_bool "eden on DRAM (young-gen-dram)" true
    (eden.R.space = Memsim.Access.Dram);
  let survivor = Option.get (H.alloc_region h R.Survivor) in
  check_bool "survivor follows the young placement" true
    (survivor.R.space = Memsim.Access.Dram);
  let old_r = Option.get (H.alloc_region h R.Old) in
  check_bool "old space stays on the heap device" true
    (old_r.R.space = Memsim.Access.Nvm)

let test_heap_cache_regions () =
  let h = H.create small_config in
  check_int "scratch pool" 4 (H.free_cache_regions h);
  let c = Option.get (H.alloc_cache_region h) in
  check_bool "cache on DRAM" true (c.R.space = Memsim.Access.Dram);
  check_bool "cache kind" true (c.R.kind = R.Cache);
  check_bool "cache in scratch range" true
    (c.R.base >= Simheap.Layout.dram_scratch_base);
  H.release_cache_region h c;
  check_int "scratch back" 4 (H.free_cache_regions h)

let test_heap_addressing () =
  let h = H.create small_config in
  let r0 = Option.get (H.alloc_region h R.Eden) in
  check_bool "in range" true (H.in_heap_range h r0.R.base);
  check_bool "region lookup" true (H.region_of_addr h (r0.R.base + 100) == r0);
  check_bool "out of range" false (H.in_heap_range h (Simheap.Layout.root_base));
  Alcotest.check_raises "region_of_addr out of range"
    (Invalid_argument "Heap.region_of_addr: address outside heap") (fun () ->
      ignore (H.region_of_addr h Simheap.Layout.root_base))

let test_heap_objects_and_roots () =
  let h = H.create small_config in
  let r = Option.get (H.alloc_region h R.Eden) in
  let o = H.new_object h r ~size:64 ~nfields:2 in
  let st = H.store h in
  let addr = O.addr st o in
  check_bool "bound" true
    (match H.lookup h addr with Some x -> x = o | None -> false);
  check_bool "lookup_exn" true (H.lookup_exn h addr = o);
  check_bool "find" true (H.find h addr = o);
  check_int "registered in region" 1 (Simstats.Ivec.length r.R.objs);
  check_int "live objects" 1 (H.live_objects h);
  check_int "live in the store" 1 (O.live st);
  H.unbind h addr;
  Alcotest.(check bool) "unbound" true (H.lookup h addr = None);
  check_bool "unbound finds none" true (H.find h addr = O.none);
  H.free_object h o;
  check_int "freed from the store" 0 (O.live st);
  let root = H.new_root h addr in
  check_int "root target" addr root.O.target;
  check_int "roots registered" 1 (Simstats.Vec.length (H.roots h));
  H.clear_roots h;
  check_int "roots cleared" 0 (Simstats.Vec.length (H.roots h))

let test_heap_object_fills_region () =
  let h = H.create small_config in
  let r = Option.get (H.alloc_region h R.Eden) in
  (* region 4096 bytes; 64-byte objects -> exactly 64 fit *)
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if H.new_object h r ~size:64 ~nfields:0 = O.none then continue_ := false
    else incr n
  done;
  check_int "object capacity" 64 !n

let test_heap_kind_queries () =
  let h = H.create small_config in
  let _e1 = Option.get (H.alloc_region h R.Eden) in
  let _e2 = Option.get (H.alloc_region h R.Eden) in
  let _s = Option.get (H.alloc_region h R.Survivor) in
  let _o = Option.get (H.alloc_region h R.Old) in
  check_int "eden count" 2 (List.length (H.regions_of_kind h R.Eden));
  check_int "young = eden + survivor" 3 (List.length (H.young_regions h));
  check_int "old count" 1 (List.length (H.regions_of_kind h R.Old))

(* ------------------------------------------------------------------ *)
(* Addr_table vs Hashtbl model                                         *)

module AT = Simheap.Addr_table

(* Values are handles; the tests bind each key to the handle equal to
   the key itself, so a lookup's value names the key it was bound to. *)
let obj_for addr = addr

(* Random insert/remove sequences over a small positive-key universe
   must leave the table in agreement with a Hashtbl model — for bound
   and unbound keys alike, including removes of absent keys (no-ops).
   The [heavy] variant multiplies every key by a power-of-two stride so
   all of them hash into the same probe neighbourhood: the adversarial
   case for linear probing with tombstones. *)
let apply_ops ~stride (ops : (int * int) list) =
  let t = AT.create () and model = Hashtbl.create 16 in
  List.iter
    (fun (op, k) ->
      let key = k * stride in
      if op <= 1 then begin
        AT.insert t key (obj_for key);
        Hashtbl.replace model key key
      end
      else begin
        AT.remove t key;
        Hashtbl.remove model key
      end)
    ops;
  (t, model)

let addr_table_agreement ~stride ops =
  let t, model = apply_ops ~stride ops in
  AT.length t = Hashtbl.length model
  &&
  let ok = ref true in
  for k = 1 to 64 do
    let key = k * stride in
    let i = AT.find t key in
    (match Hashtbl.find_opt model key with
    | Some id -> if not (i >= 0 && AT.value t i = id) then ok := false
    | None -> if i <> -1 then ok := false)
  done;
  !ok

let op_gen = QCheck2.Gen.(pair (int_range 0 2) (int_range 1 64))

let test_addr_table_model =
  QCheck2.Test.make ~name:"addr table agrees with Hashtbl model" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) op_gen)
    (addr_table_agreement ~stride:1)

let test_addr_table_collisions =
  QCheck2.Test.make ~name:"agreement under collision-heavy keys" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) op_gen)
    (addr_table_agreement ~stride:4096)

(* find is deterministic between mutations, and bindings inserted before
   a growth rehash stay reachable (at possibly relocated indices)
   afterwards.  8192 extra keys force several capacity doublings from
   the initial slots. *)
let test_addr_table_growth =
  QCheck2.Test.make ~name:"bindings survive growth rehash" ~count:20
    QCheck2.Gen.(int_range 1 64)
    (fun n ->
      let t = AT.create () in
      let keys = List.init n (fun i -> 1 + (i * 4096)) in
      List.iter (fun k -> AT.insert t k (obj_for k)) keys;
      let stable = List.for_all (fun k -> AT.find t k = AT.find t k) keys in
      for j = 1 to 8192 do
        let k = 100_000_000 + (j * 8) in
        AT.insert t k (obj_for k)
      done;
      stable
      && List.for_all
           (fun k ->
             let i = AT.find t k in
             i >= 0 && AT.value t i = k)
           keys)

(* [iter] visits every bound key exactly once, with its value, and
   nothing else (no empty slot, no tombstone) — the verifier's table walks
   rely on it.  Runs over both key universes, so through growth and
   tombstone rebuilds. *)
let addr_table_iter_exact ~stride ops =
  let t, model = apply_ops ~stride ops in
  let seen = Hashtbl.create 16 and ok = ref true in
  AT.iter
    (fun k o ->
      if Hashtbl.mem seen k || (not (Hashtbl.mem model k)) || o <> k then
        ok := false;
      Hashtbl.replace seen k ())
    t;
  !ok && Hashtbl.length seen = Hashtbl.length model

let test_addr_table_iter =
  QCheck2.Test.make ~name:"iter visits each binding once" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) op_gen)
    (addr_table_iter_exact ~stride:1)

let test_addr_table_iter_collisions =
  QCheck2.Test.make ~name:"iter exact under collision-heavy keys" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) op_gen)
    (addr_table_iter_exact ~stride:4096)

(* Hash quality on a regular heap layout: 48 regions of 8 KiB from the
   heap base, each holding 64 objects of 128 B.  Aligned addresses at the
   same in-region offset must not share a probe neighbourhood; a hash
   whose index ignores the high address bits clusters them and the mean
   probe distance grows with the heap (tens of slots here). *)
let test_addr_table_probe_distance () =
  let t = AT.create () and keys = ref [] in
  for r = 0 to 47 do
    for o = 0 to 63 do
      let k = Simheap.Layout.heap_base + (r * 8192) + (o * 128) in
      AT.insert t k (obj_for k);
      keys := k :: !keys
    done
  done;
  let total =
    List.fold_left
      (fun acc k ->
        let d = AT.probe_distance t k in
        check_bool "bound" true (d >= 0);
        acc + d)
      0 !keys
  in
  let mean = float_of_int total /. float_of_int (List.length !keys) in
  if mean > 4.0 then Alcotest.failf "mean probe distance %.2f > 4" mean;
  check_int "unbound" (-1) (AT.probe_distance t 8)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "simheap"
    [
      ("layout", [ Alcotest.test_case "disjoint ranges" `Quick test_layout_disjoint_ranges ]);
      ( "objmodel",
        [
          Alcotest.test_case "make" `Quick test_obj_make;
          Alcotest.test_case "field addrs" `Quick test_obj_field_addrs;
          Alcotest.test_case "slots" `Quick test_slots;
          Alcotest.test_case "store recycling" `Quick test_store_recycling;
          Alcotest.test_case "store skipped tail" `Quick test_store_skipped_tail;
        ] );
      ( "region",
        [
          Alcotest.test_case "alloc" `Quick test_region_alloc;
          Alcotest.test_case "contains/reset" `Quick test_region_contains_reset;
        ] );
      ( "heap",
        [
          Alcotest.test_case "region pool" `Quick test_heap_region_pool;
          Alcotest.test_case "young space override" `Quick test_heap_young_space_override;
          Alcotest.test_case "cache regions" `Quick test_heap_cache_regions;
          Alcotest.test_case "addressing" `Quick test_heap_addressing;
          Alcotest.test_case "objects and roots" `Quick test_heap_objects_and_roots;
          Alcotest.test_case "object fills region" `Quick test_heap_object_fills_region;
          Alcotest.test_case "kind queries" `Quick test_heap_kind_queries;
        ] );
      ( "addr_table",
        [
          qc test_addr_table_model;
          qc test_addr_table_collisions;
          qc test_addr_table_growth;
          qc test_addr_table_iter;
          qc test_addr_table_iter_collisions;
          Alcotest.test_case "probe distance on a regular heap" `Quick
            test_addr_table_probe_distance;
        ] );
    ]
