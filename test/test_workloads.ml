(* Tests for the workload layer: application profiles, graph generation,
   the old-space pool, the mutator driver, the Cassandra latency
   simulation and the prefetch micro-benchmark. *)

module P = Workloads.App_profile
module O = Simheap.Objmodel
module R = Simheap.Region
module H = Simheap.Heap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Mutator-driven collections in this file verify every pause. *)
let () = Verify.Hooks.ensure_installed ()

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)

let test_apps_complete () =
  check_int "26 applications" 26 (List.length Workloads.Apps.all);
  let names = List.map (fun (p : P.t) -> p.P.name) Workloads.Apps.all in
  check_int "unique names" 26 (List.length (List.sort_uniq compare names));
  check_bool "sorted like Figure 5" true
    (names = List.sort compare names);
  check_int "22 Renaissance" 22 (List.length Workloads.Apps.renaissance_apps);
  check_int "4 Spark" 4 (List.length Workloads.Apps.spark_apps);
  check_int "6 Figure-1 apps" 6 (List.length Workloads.Apps.figure1_apps)

let test_apps_find () =
  let p = Workloads.Apps.find "page-rank" in
  check_bool "page-rank is Spark" true (p.P.suite = P.Spark);
  Alcotest.check_raises "unknown app"
    (Invalid_argument "Apps.find: unknown application \"nope\"") (fun () ->
      ignore (Workloads.Apps.find "nope"))

let test_profile_geometry () =
  List.iter
    (fun (p : P.t) ->
      check_bool "2048 heap regions (G1 default)" true
        (P.heap_regions p = 2048);
      check_bool "young fits in heap" true (p.P.young_bytes < p.P.heap_bytes);
      check_bool "live fits in young" true
        (P.live_bytes_per_gc p < p.P.young_bytes);
      check_bool "survival sane" true
        (p.P.survival_ratio > 0.0 && p.P.survival_ratio < 0.6))
    Workloads.Apps.all

let test_gc_config_sizes () =
  let p = Workloads.Apps.find "page-rank" in
  let c = Workloads.Apps.gc_config p ~preset:`All ~threads:28 in
  check_int "header map sized from profile" p.P.header_map_bytes
    c.Nvmgc.Gc_config.header_map_bytes;
  Alcotest.(check (option int)) "write cache limit from profile"
    (Some p.P.write_cache_bytes) c.Nvmgc.Gc_config.write_cache_limit_bytes;
  check_bool "+all has everything on" true
    (c.Nvmgc.Gc_config.write_cache && c.Nvmgc.Gc_config.header_map
   && c.Nvmgc.Gc_config.prefetch && c.Nvmgc.Gc_config.nt_flush);
  let v = Workloads.Apps.gc_config p ~preset:`Vanilla ~threads:28 in
  check_bool "vanilla has them off" true
    ((not v.Nvmgc.Gc_config.write_cache) && not v.Nvmgc.Gc_config.header_map);
  let ps = Workloads.Apps.gc_config p ~preset:`Vanilla_ps ~threads:28 in
  check_bool "vanilla PS has no prefetch" true
    (not ps.Nvmgc.Gc_config.prefetch);
  check_bool "PS uses LABs" true (ps.Nvmgc.Gc_config.lab_bytes < max_int)

(* ------------------------------------------------------------------ *)
(* Graph generation                                                    *)

let generate ?(seed = 1) (profile : P.t) =
  let heap = H.create (P.heap_config profile) in
  let old_pool = Workloads.Old_space.create heap in
  let rng = Simstats.Prng.create seed in
  let stats = Workloads.Graph_gen.generate ~heap ~profile ~rng ~old_pool in
  (heap, old_pool, stats)

let test_graph_volume () =
  let profile = Workloads.Apps.find "reactors" in
  let _, _, stats = generate profile in
  let target = P.live_bytes_per_gc profile in
  check_bool
    (Printf.sprintf "live bytes near target (%d vs %d)"
       stats.Workloads.Graph_gen.live_bytes target)
    true
    (float_of_int stats.Workloads.Graph_gen.live_bytes
    > 0.9 *. float_of_int target
    && float_of_int stats.Workloads.Graph_gen.live_bytes
       < 1.3 *. float_of_int target);
  check_bool "has entries" true
    (stats.Workloads.Graph_gen.remset_slots + stats.Workloads.Graph_gen.root_slots > 0)

let test_graph_every_entry_reachable () =
  (* every live object must be reachable from roots or remset slots *)
  let profile = Workloads.Apps.find "reactors" in
  let heap, _, stats = generate profile in
  let st = H.store heap in
  let visited = Hashtbl.create 256 in
  let rec visit addr =
    if
      addr <> Simheap.Layout.null
      && H.in_heap_range heap addr
      && not (Hashtbl.mem visited addr)
    then begin
      match H.lookup heap addr with
      | None -> Alcotest.failf "dangling generated reference %d" addr
      | Some o ->
          let region = H.region_of_addr heap addr in
          if region.R.kind = R.Eden then begin
            Hashtbl.add visited addr ();
            for i = 0 to O.nfields st o - 1 do
              visit (O.field st o i)
            done
          end
    end
  in
  Simstats.Vec.iter (fun (r : O.root) -> visit r.O.target) (H.roots heap);
  H.iter_regions
    (fun region ->
      Simstats.Ivec.iter
        (fun slot -> visit (O.slot_referent st slot))
        region.R.remset)
    heap;
  check_int "all live objects reachable from entries"
    stats.Workloads.Graph_gen.live_objects (Hashtbl.length visited)

let test_graph_remsets_point_into_young () =
  let profile = Workloads.Apps.find "page-rank" in
  let heap, _, _ = generate profile in
  let st = H.store heap in
  H.iter_regions
    (fun region ->
      Simstats.Ivec.iter
        (fun slot ->
          let target = O.slot_referent st slot in
          check_bool "remset target inside its region" true
            (R.contains region target);
          check_bool "remset region is young" true (region.R.kind = R.Eden))
        region.R.remset)
    heap

let test_graph_chain_shape () =
  (* chain-heavy profiles produce more chains than tree-heavy ones *)
  let chainy = Workloads.Apps.find "akka-uct" in
  let treey = Workloads.Apps.find "naive-bayes" in
  let _, _, s1 = generate chainy in
  let _, _, s2 = generate treey in
  check_bool "akka-uct is chain-heavy" true
    (float_of_int s1.Workloads.Graph_gen.chains
     /. float_of_int (s1.Workloads.Graph_gen.chains + s1.Workloads.Graph_gen.trees)
    > float_of_int s2.Workloads.Graph_gen.chains
      /. float_of_int (s2.Workloads.Graph_gen.chains + s2.Workloads.Graph_gen.trees))

let test_graph_determinism () =
  let profile = Workloads.Apps.find "dotty" in
  let _, _, a = generate ~seed:9 profile in
  let _, _, b = generate ~seed:9 profile in
  check_bool "same seed, same graph" true (a = b)

(* ------------------------------------------------------------------ *)
(* Old space                                                           *)

let test_old_space_slots () =
  let profile = Workloads.Apps.find "reactors" in
  let heap = H.create (P.heap_config profile) in
  let pool = Workloads.Old_space.create heap in
  let st = H.store heap in
  let s1 = Workloads.Old_space.take_slot pool in
  let s2 = Workloads.Old_space.take_slot pool in
  check_bool "distinct slots" true (s1 <> s2);
  O.slot_write st s1 1234;
  Workloads.Old_space.reset_cycle pool;
  check_int "reset nulls holder fields" Simheap.Layout.null
    (O.slot_referent st s1);
  let s3 = Workloads.Old_space.take_slot pool in
  check_bool "cursor rewound" true (s3 = s1)

let test_old_space_recycle_protects_holders () =
  let profile = Workloads.Apps.find "reactors" in
  let heap = H.create (P.heap_config profile) in
  let pool = Workloads.Old_space.create heap in
  ignore (Workloads.Old_space.take_slot pool);
  (* fill some old regions that ARE recyclable *)
  let extra = List.init 8 (fun _ -> Option.get (H.alloc_region heap R.Old)) in
  ignore extra;
  let free_before = H.free_regions heap in
  Workloads.Old_space.recycle pool ~keep_free:(free_before + 4);
  check_bool "recycle freed regions" true (H.free_regions heap > free_before);
  (* holder still usable *)
  let slot = Workloads.Old_space.take_slot pool in
  let h = O.slot_holder slot in
  check_bool "holder survives recycling" true
    (O.is_live (H.store heap) h
    && H.lookup heap (O.addr (H.store heap) h) = Some h)

(* Objects die at a pause (never copied) and when recycling releases
   their region; both free their storage, so over a long run the store
   grows with the largest live set, not with every object allocated.
   naive-bayes at gc_scale 8 runs 24 collections; a store that never
   recycled would carve a block per generated object, 2.6x the largest
   live set here, against the 1.5x checked. *)
let test_old_space_store_bounded () =
  let profile = Workloads.Apps.find "naive-bayes" in
  (* A heap with little room past what recycling keeps free, so promoted
     regions are recycled every few cycles. *)
  let heap =
    H.create
      { (P.heap_config profile) with
        H.heap_regions = (2 * P.young_regions profile) + 12 }
  in
  let memory = Memsim.Memory.create (P.memory_config profile) in
  let config = Workloads.Apps.gc_config profile ~preset:`All ~threads:4 in
  let gc = Nvmgc.Young_gc.create ~heap ~memory config in
  let pool = Workloads.Old_space.create heap in
  let rng = Simstats.Prng.create 42 in
  let st = H.store heap in
  let gcs = 8 * profile.P.gcs_per_run in
  let now = ref 0.0 and max_live = ref 0 and generated = ref 0 in
  for _ = 1 to gcs do
    H.clear_roots heap;
    Workloads.Old_space.reset_cycle pool;
    let g =
      Workloads.Graph_gen.generate ~heap ~profile
        ~rng:(Simstats.Prng.split rng) ~old_pool:pool
    in
    generated := !generated + g.Workloads.Graph_gen.live_objects;
    let pause = Nvmgc.Young_gc.collect gc ~now_ns:!now in
    now := !now +. pause.Nvmgc.Gc_stats.pause_ns;
    check_int "store live = bindings after a pause" (H.live_objects heap)
      (O.live st);
    max_live := Int.max !max_live (O.live st);
    Workloads.Old_space.recycle pool ~keep_free:(P.young_regions profile + 8)
  done;
  check_int "24 collections" 24 gcs;
  check_bool "recycling released objects" true (!generated > 2 * !max_live);
  if 2 * O.capacity st > 3 * !max_live then
    Alcotest.failf "store capacity %d exceeds 1.5 x the largest live set %d"
      (O.capacity st) !max_live

(* ------------------------------------------------------------------ *)
(* Mutator                                                             *)

let test_mutator_run () =
  let profile = Workloads.Apps.find "scrabble" in
  let config = Workloads.Apps.gc_config profile ~preset:`All ~threads:8 in
  let result, gc, _memory, _heap =
    Workloads.Mutator.run_fresh ~profile ~seed:2 ~gcs:3 config
  in
  check_int "three pauses" 3 (List.length result.Workloads.Mutator.pauses);
  check_int "totals agree" 3
    (Nvmgc.Young_gc.totals gc).Nvmgc.Gc_stats.pauses;
  Alcotest.(check (float 1.0)) "end = app + gc"
    (result.Workloads.Mutator.app_ns +. result.Workloads.Mutator.gc_ns)
    result.Workloads.Mutator.end_ns;
  check_bool "gc share in (0,1)" true
    (let s = Workloads.Mutator.gc_share result in
     s > 0.0 && s < 1.0)

let test_mutator_device_slows_app () =
  let profile = Workloads.Apps.find "page-rank" in
  let nvm = Workloads.Mutator.app_phase_ns profile ~device:Memsim.Device.optane in
  let dram = Workloads.Mutator.app_phase_ns profile ~device:Memsim.Device.dram in
  check_bool "NVM app phase slower" true (nvm > dram *. 1.5);
  let ml = Workloads.Apps.find "movie-lens" in
  let nvm_ml = Workloads.Mutator.app_phase_ns ml ~device:Memsim.Device.optane in
  let dram_ml = Workloads.Mutator.app_phase_ns ml ~device:Memsim.Device.dram in
  check_bool "movie-lens barely affected (low memory intensity)" true
    (nvm_ml < dram_ml *. 1.3)

(* ------------------------------------------------------------------ *)
(* Prefetch micro-benchmark                                            *)

let test_prefetch_micro () =
  let results = Workloads.Prefetch_micro.run ~accesses:40_000 () in
  check_int "four configurations" 4 (List.length results);
  let dram_imp =
    Workloads.Prefetch_micro.improvement results ~base:"DRAM-noprefetch"
      ~opt:"DRAM-prefetch"
  and nvm_imp =
    Workloads.Prefetch_micro.improvement results ~base:"NVM-noprefetch"
      ~opt:"NVM-prefetch"
  in
  check_bool "prefetching helps DRAM" true (dram_imp > 1.1);
  check_bool "prefetching helps NVM more (paper 3.05x vs 1.58x)" true
    (nvm_imp > dram_imp)

(* ------------------------------------------------------------------ *)
(* Cassandra                                                           *)

let test_cassandra_shapes () =
  let point ~optimized ~thr =
    Workloads.Cassandra.simulate ~requests:15_000 ~write_phase:false
      ~optimized ~threads:28 ~throughput_kqps:thr ~seed:4 ()
  in
  let opt = point ~optimized:true ~thr:130.0 in
  let van = point ~optimized:false ~thr:130.0 in
  check_bool "p99 >= p95" true
    (opt.Workloads.Cassandra.p99_ms >= opt.Workloads.Cassandra.p95_ms -. 1e-9);
  check_bool "optimized GC improves p99 at high load" true
    (van.Workloads.Cassandra.p99_ms > opt.Workloads.Cassandra.p99_ms);
  check_bool "vanilla pauses longer" true
    (van.Workloads.Cassandra.mean_pause_ms > opt.Workloads.Cassandra.mean_pause_ms);
  (* more load -> shorter GC interval *)
  let low = point ~optimized:true ~thr:30.0 in
  check_bool "interval shrinks with load" true
    (low.Workloads.Cassandra.gc_interval_ms > opt.Workloads.Cassandra.gc_interval_ms)

let () =
  Alcotest.run "workloads"
    [
      ( "profiles",
        [
          Alcotest.test_case "26 apps" `Quick test_apps_complete;
          Alcotest.test_case "find" `Quick test_apps_find;
          Alcotest.test_case "geometry" `Quick test_profile_geometry;
          Alcotest.test_case "gc config sizes" `Quick test_gc_config_sizes;
        ] );
      ( "graph_gen",
        [
          Alcotest.test_case "volume" `Quick test_graph_volume;
          Alcotest.test_case "entries reach everything" `Quick
            test_graph_every_entry_reachable;
          Alcotest.test_case "remsets point into young" `Quick
            test_graph_remsets_point_into_young;
          Alcotest.test_case "chain shape" `Quick test_graph_chain_shape;
          Alcotest.test_case "determinism" `Quick test_graph_determinism;
        ] );
      ( "old_space",
        [
          Alcotest.test_case "slots" `Quick test_old_space_slots;
          Alcotest.test_case "recycle protects holders" `Quick
            test_old_space_recycle_protects_holders;
          Alcotest.test_case "store bounded by the live set" `Quick
            test_old_space_store_bounded;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "run" `Quick test_mutator_run;
          Alcotest.test_case "device slows app" `Quick test_mutator_device_slows_app;
        ] );
      ( "prefetch_micro",
        [ Alcotest.test_case "shapes" `Quick test_prefetch_micro ] );
      ( "cassandra",
        [ Alcotest.test_case "shapes" `Quick test_cassandra_shapes ] );
    ]
