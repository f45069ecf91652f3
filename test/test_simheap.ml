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
  let o = O.make ~id:1 ~addr:1000 ~size:48 ~fields:[| 0; 0 |] in
  check_int "nfields" 2 (O.nfields o);
  check_int "primitive bytes" (48 - 16 - 16) (O.primitive_bytes o);
  check_bool "not an array" false (O.is_array o);
  check_int "phys = addr initially" o.O.addr o.O.phys;
  let arr = O.make ~id:2 ~addr:2000 ~size:256 ~fields:[||] in
  check_bool "array" true (O.is_array arr)

let test_obj_field_addrs () =
  let o = O.make ~id:1 ~addr:1000 ~size:48 ~fields:[| 0; 0 |] in
  check_int "field 0 after header" (1000 + 16) (O.field_addr o 0);
  check_int "field 1" (1000 + 24) (O.field_addr o 1);
  o.O.phys <- 5000;
  check_int "phys addr follows phys" (5000 + 16) (O.field_phys_addr o 0);
  check_int "official addr unchanged" (1000 + 16) (O.field_addr o 0)

let test_slots () =
  let holder = O.make ~id:1 ~addr:1000 ~size:48 ~fields:[| 77; 0 |] in
  let field_slot = O.Field (holder, 0) in
  check_int "field referent" 77 (O.slot_referent field_slot);
  O.slot_write field_slot 99;
  check_int "field updated" 99 holder.O.fields.(0);
  let root : O.root = { O.root_id = 3; target = 55 } in
  let root_slot = O.Root root in
  check_int "root referent" 55 (O.slot_referent root_slot);
  O.slot_write root_slot 66;
  check_int "root updated" 66 root.O.target;
  check_int "root slot addr" (Simheap.Layout.root_addr 3) (O.slot_addr root_slot)

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
  let o = Option.get (H.new_object h r ~size:64 ~nfields:2) in
  check_bool "bound" true
    (match H.lookup h o.O.addr with Some x -> x == o | None -> false);
  check_bool "lookup_exn" true (H.lookup_exn h o.O.addr == o);
  check_bool "lookup_or_dummy" true (H.lookup_or_dummy h o.O.addr == o);
  check_int "registered in region" 1 (Simstats.Vec.length r.R.objs);
  check_int "live objects" 1 (H.live_objects h);
  H.unbind h o.O.addr;
  Alcotest.(check bool) "unbound" true (H.lookup h o.O.addr = None);
  check_bool "unbound is the dummy" true
    (H.lookup_or_dummy h o.O.addr == R.dummy_obj);
  let root = H.new_root h o.O.addr in
  check_int "root target" o.O.addr root.O.target;
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
    match H.new_object h r ~size:64 ~nfields:0 with
    | Some _ -> incr n
    | None -> continue_ := false
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

let obj_for addr = O.make ~id:addr ~addr ~size:32 ~fields:[||]

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
    | Some id -> if not (i >= 0 && (AT.value t i).O.id = id) then ok := false
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
             i >= 0 && (AT.value t i).O.id = k)
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
      if Hashtbl.mem seen k || (not (Hashtbl.mem model k)) || o.O.id <> k then
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
