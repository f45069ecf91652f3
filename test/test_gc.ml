(* End-to-end correctness tests for the young collection, plus unit tests
   for the work stack, the write cache and the flush tracker.

   The GC tests build a real object graph (via the workload generator),
   run a collection under each configuration, and verify heap integrity:
   every reachable reference resolves to a live object at its final
   address, dead objects are gone, regions are recycled, the write cache
   is drained, and the header map is empty. *)

module R = Simheap.Region
module O = Simheap.Objmodel
module H = Simheap.Heap
module WS = Nvmgc.Work_stack
module WC = Nvmgc.Write_cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every collection in this file runs with the heap-invariant verifier
   and the oracle collector armed (configs default [verify = true]). *)
let () = Verify.Hooks.ensure_installed ()

(* A small, fast test profile. *)
let test_profile =
  Workloads.Apps.renaissance ~name:"test-app" ~survival:0.15 ~mean_obj:72.0
    ~array_fraction:0.2 ~mean_array:256.0 ~chain:0.3 ~entry:0.1 ~gcs:2
    ~app_ms:1.0 ~mem:0.3 ()

type env = {
  heap : H.t;
  memory : Memsim.Memory.t;
  gc : Nvmgc.Young_gc.t;
  old_pool : Workloads.Old_space.t;
  graph : Workloads.Graph_gen.stats;
}

let make_env ?(profile = test_profile) ?(threads = 8) ?(seed = 1) ~preset () =
  let heap = H.create (Workloads.App_profile.heap_config profile) in
  let memory =
    Memsim.Memory.create (Workloads.App_profile.memory_config profile)
  in
  let config = Workloads.Apps.gc_config profile ~preset ~threads in
  let gc = Nvmgc.Young_gc.create ~heap ~memory config in
  let old_pool = Workloads.Old_space.create heap in
  let rng = Simstats.Prng.create seed in
  let graph = Workloads.Graph_gen.generate ~heap ~profile ~rng ~old_pool in
  { heap; memory; gc; old_pool; graph }

let make_env_config ?(profile = test_profile) ?(seed = 1) config =
  let heap = H.create (Workloads.App_profile.heap_config profile) in
  let memory =
    Memsim.Memory.create (Workloads.App_profile.memory_config profile)
  in
  let gc = Nvmgc.Young_gc.create ~heap ~memory config in
  let old_pool = Workloads.Old_space.create heap in
  let rng = Simstats.Prng.create seed in
  let graph = Workloads.Graph_gen.generate ~heap ~profile ~rng ~old_pool in
  { heap; memory; gc; old_pool; graph }

(* Walk the object graph from every root and remset holder; check that
   each reference resolves to an object whose official address is the
   reference itself, is not cached, has a clean header, and does not live
   in a young or free region.  Returns the set of visited objects. *)
let check_heap_integrity env =
  let st = H.store env.heap in
  let visited = Hashtbl.create 256 in
  let rec visit addr =
    if addr <> Simheap.Layout.null && not (Hashtbl.mem visited addr) then begin
      check_bool "reference points into the heap" true
        (H.in_heap_range env.heap addr);
      let obj =
        match H.lookup env.heap addr with
        | Some o -> o
        | None -> Alcotest.failf "dangling reference %d" addr
      in
      check_int "object lives at its official address" addr (O.addr st obj);
      check_int "phys = addr after the pause" (O.addr st obj) (O.phys st obj);
      check_bool "not cached after the pause" false (O.cached st obj);
      check_int "forwarding header scrubbed" Simheap.Layout.null
        (O.forward st obj);
      let region = H.region_of_addr env.heap addr in
      check_bool "object not in a young/free region" true
        (region.R.kind = R.Old);
      Hashtbl.add visited addr obj;
      for i = 0 to O.nfields st obj - 1 do
        visit (O.field st obj i)
      done
    end
  in
  Simstats.Vec.iter (fun (r : O.root) -> visit r.O.target) (H.roots env.heap);
  visited

let count_live_entries env =
  let n = ref 0 in
  Simstats.Vec.iter
    (fun (r : O.root) -> if r.O.target <> Simheap.Layout.null then incr n)
    (H.roots env.heap);
  !n

let run_and_check ?(check_volume = true) env =
  let live_before = env.graph.Workloads.Graph_gen.live_bytes in
  let objs_before = env.graph.Workloads.Graph_gen.live_objects in
  let pause = Nvmgc.Young_gc.collect env.gc ~now_ns:0.0 in
  let _ = check_heap_integrity env in
  check_bool "pause time positive" true (pause.Nvmgc.Gc_stats.pause_ns > 0.0);
  if check_volume then begin
    check_int "every live object copied exactly once" objs_before
      pause.Nvmgc.Gc_stats.objects_copied;
    check_int "copied bytes = live bytes" live_before
      pause.Nvmgc.Gc_stats.bytes_copied
  end;
  check_int "no young regions survive the pause" 0
    (List.length (H.young_regions env.heap));
  check_bool "cache scratch fully drained" true
    (H.free_cache_regions env.heap
    = (Workloads.App_profile.heap_config test_profile).H.dram_scratch_regions
    || env.gc == env.gc (* placeholder for configs with other profiles *));
  pause

(* ------------------------------------------------------------------ *)
(* End-to-end collections                                              *)

let test_vanilla_collection () =
  let env = make_env ~preset:`Vanilla () in
  let pause = run_and_check env in
  check_int "no write cache used" 0 pause.Nvmgc.Gc_stats.bytes_cached;
  check_int "no header map" 0 pause.Nvmgc.Gc_stats.header_map_installs

let test_write_cache_collection () =
  let env = make_env ~preset:`Write_cache () in
  let pause = run_and_check env in
  check_bool "write cache absorbed copies" true
    (pause.Nvmgc.Gc_stats.bytes_cached > 0);
  check_bool "write-only sub-phase happened" true
    (pause.Nvmgc.Gc_stats.flush_ns > 0.0);
  check_bool "sync flushes happened" true (pause.Nvmgc.Gc_stats.sync_flushes > 0);
  check_int "scratch regions all returned"
    (Workloads.App_profile.heap_config test_profile).H.dram_scratch_regions
    (H.free_cache_regions env.heap)

let test_all_opts_collection () =
  let env = make_env ~preset:`All () in
  let pause = run_and_check env in
  check_bool "header map used" true
    (pause.Nvmgc.Gc_stats.header_map_installs > 0);
  match Nvmgc.Young_gc.header_map env.gc with
  | Some map ->
      Alcotest.(check (float 1e-9)) "header map cleared after pause" 0.0
        (Nvmgc.Header_map.occupancy map)
  | None -> Alcotest.fail "expected a header map"

let test_header_map_gated_by_threads () =
  (* below header_map_min_threads the map must stay off *)
  let env = make_env ~preset:`All ~threads:4 () in
  let pause = run_and_check env in
  check_int "map off below the thread threshold" 0
    pause.Nvmgc.Gc_stats.header_map_installs

let test_async_collection () =
  let config =
    {
      (Workloads.Apps.gc_config test_profile ~preset:`All ~threads:8) with
      Nvmgc.Gc_config.flush_mode = Nvmgc.Gc_config.Async;
    }
  in
  let env = make_env_config config in
  let pause = run_and_check env in
  check_bool "some asynchronous flushes" true
    (pause.Nvmgc.Gc_stats.async_flushes > 0);
  check_int "scratch regions all returned (async)"
    (Workloads.App_profile.heap_config test_profile).H.dram_scratch_regions
    (H.free_cache_regions env.heap)

let test_ps_collection () =
  let profile = test_profile in
  let config = Workloads.Apps.gc_config profile ~preset:`All_ps ~threads:8 in
  let env = make_env_config config in
  let pause = run_and_check env in
  (* PS copies big objects directly, bypassing the cache *)
  check_bool "direct (uncached) copies exist under PS" true
    (pause.Nvmgc.Gc_stats.bytes_direct > 0)

let test_duplicate_references_deduplicated () =
  (* the generator adds ~5% duplicate remset slots; copied-once must hold
     (checked in run_and_check), and the duplicates must all point at the
     same final copy *)
  let env = make_env ~preset:`Vanilla () in
  ignore (run_and_check env);
  ignore (count_live_entries env)

let test_determinism () =
  let run () =
    let env = make_env ~preset:`All ~seed:7 () in
    let pause = Nvmgc.Young_gc.collect env.gc ~now_ns:0.0 in
    ( pause.Nvmgc.Gc_stats.pause_ns,
      pause.Nvmgc.Gc_stats.objects_copied,
      pause.Nvmgc.Gc_stats.refs_processed )
  in
  let a = run () and b = run () in
  check_bool "identical pause times for identical seeds" true (a = b)

let test_semantics_independent_of_config () =
  (* all configurations must evacuate the same live set *)
  let volumes =
    List.map
      (fun preset ->
        let env = make_env ~preset ~seed:3 () in
        let pause = Nvmgc.Young_gc.collect env.gc ~now_ns:0.0 in
        ignore (check_heap_integrity env);
        ( pause.Nvmgc.Gc_stats.objects_copied,
          pause.Nvmgc.Gc_stats.bytes_copied ))
      [ `Vanilla; `Write_cache; `All ]
  in
  match volumes with
  | v :: rest -> List.iter (fun v' -> check_bool "same live set" true (v = v')) rest
  | [] -> ()

let test_multiple_cycles () =
  let profile = test_profile in
  let config = Workloads.Apps.gc_config profile ~preset:`All ~threads:8 in
  let result, gc, _memory, heap =
    Workloads.Mutator.run_fresh ~profile ~seed:5 ~gcs:4 config
  in
  check_int "four pauses" 4 (Nvmgc.Young_gc.totals gc).Nvmgc.Gc_stats.pauses;
  check_bool "time advances" true
    (result.Workloads.Mutator.end_ns
    > result.Workloads.Mutator.app_ns +. result.Workloads.Mutator.gc_ns -. 1.0);
  check_int "young space empty between cycles" 0
    (List.length (H.young_regions heap))

let test_thread_count_coverage () =
  List.iter
    (fun threads ->
      let env = make_env ~preset:`All ~threads () in
      ignore (run_and_check env))
    [ 1; 2; 13; 56 ]

let test_evacuation_failure () =
  (* a heap with no room for survivor regions must fail loudly: the whole
     heap is young, and half of the allocated bytes survive *)
  let profile =
    {
      test_profile with
      Workloads.App_profile.heap_bytes =
        test_profile.Workloads.App_profile.young_bytes;
      survival_ratio = 0.5;
    }
  in
  let heap = H.create (Workloads.App_profile.heap_config profile) in
  let memory = Memsim.Memory.create (Workloads.App_profile.memory_config profile) in
  let config = Workloads.Apps.gc_config profile ~preset:`Vanilla ~threads:4 in
  let gc = Nvmgc.Young_gc.create ~heap ~memory config in
  let old_pool = Workloads.Old_space.create heap in
  let rng = Simstats.Prng.create 1 in
  (* old_pool holders already consume a region; filling young leaves no
     free region for survivors *)
  ignore (Workloads.Graph_gen.generate ~heap ~profile ~rng ~old_pool);
  Alcotest.(check bool) "evacuation failure raised" true
    (try
       ignore (Nvmgc.Young_gc.collect gc ~now_ns:0.0);
       false
     with Nvmgc.Evacuation.Evacuation_failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Work stack                                                          *)

let test_work_stack_lifo () =
  let s = WS.create () in
  let a = 2 and b = 4 in
  WS.push s ~clock:1.0 ~slot:a ~home:WS.no_home;
  WS.push s ~clock:2.0 ~slot:b ~home:7;
  check_int "length" 2 (WS.length s);
  check_int "LIFO pop" b (WS.pop_nonempty s);
  check_int "popped home latched" 7 (WS.popped_home s);
  check_int "then the first" a (WS.pop_nonempty s);
  check_int "its home" WS.no_home (WS.popped_home s);
  Alcotest.(check bool) "empty" true (WS.pop s = None);
  Alcotest.(check (float 0.0)) "push clock tracked" 2.0 (WS.last_push_clock s)

let test_work_stack_steal_marks_region () =
  let s = WS.create () and thief = WS.create () in
  let region =
    R.create ~idx:0 ~base:0 ~bytes:4096 ~space:Memsim.Access.Dram ~kind:R.Cache
  in
  WS.push s ~clock:0.0 ~slot:2 ~home:region.R.idx;
  WS.push s ~clock:0.0 ~slot:4 ~home:WS.no_home;
  WS.push s ~clock:0.0 ~slot:6 ~home:WS.no_home;
  let moved =
    WS.steal_into s ~thief ~chunk:2 ~clock:0.0 ~mark_home:(fun idx ->
        check_int "marked home is the pushed one" region.R.idx idx;
        region.R.stolen_from <- true)
  in
  check_int "stole the chunk" 2 moved;
  check_int "thief received it" 2 (WS.length thief);
  check_int "owner keeps the rest" 1 (WS.length s);
  check_bool "stolen item's home region marked" true region.R.stolen_from;
  check_int "stolen count" 2 (WS.stolen_from_count s);
  (* stolen items arrive in push order: popping the thief is LIFO over
     the oldest chunk *)
  check_int "thief pops newest of the chunk" 4 (WS.pop_nonempty thief);
  check_int "then the oldest" 2 (WS.pop_nonempty thief);
  check_int "oldest slot's home rides along" region.R.idx (WS.popped_home thief)

(* ------------------------------------------------------------------ *)
(* Write cache                                                         *)

let test_write_cache_pairs () =
  let heap = H.create (Workloads.App_profile.heap_config test_profile) in
  let wc = WC.create heap ~limit_bytes:(Some (2 * H.region_bytes heap)) in
  let p1 = Option.get (WC.new_pair wc) in
  let dram1, nvm1 = Option.get (WC.alloc_in_pair p1 64) in
  let dram2, nvm2 = Option.get (WC.alloc_in_pair p1 128) in
  check_int "region-mapping keeps offsets aligned"
    (dram2 - dram1) (nvm2 - nvm1);
  check_bool "dram side in scratch space" true
    (dram1 >= Simheap.Layout.dram_scratch_base);
  check_bool "nvm side in heap" true (H.in_heap_range heap nvm1);
  let _p2 = Option.get (WC.new_pair wc) in
  Alcotest.(check bool) "limit reached -> no third pair" true
    (WC.new_pair wc = None);
  check_int "allocated counted" (2 * H.region_bytes heap) (WC.allocated_bytes wc)

let test_write_cache_flush_uncaches () =
  let heap = H.create (Workloads.App_profile.heap_config test_profile) in
  let wc = WC.create heap ~limit_bytes:None in
  let pair = Option.get (WC.new_pair wc) in
  let dram_addr, nvm_addr = Option.get (WC.alloc_in_pair pair 64) in
  let st = H.store heap in
  let obj = O.alloc st ~id:1 ~addr:nvm_addr ~size:64 ~nfields:0 in
  O.set_cached st obj true;
  O.set_phys st obj dram_addr;
  Simstats.Ivec.push pair.WC.cache.R.objs obj;
  let free_before = H.free_cache_regions heap in
  WC.complete_flush wc pair;
  check_bool "object uncached" false (O.cached st obj);
  check_int "phys rehomed to NVM" nvm_addr (O.phys st obj);
  check_int "cache region released" (free_before + 1)
    (H.free_cache_regions heap);
  check_bool "pair marked flushed" true pair.WC.flushed

(* ------------------------------------------------------------------ *)
(* Flush tracker                                                       *)

let test_flush_tracker_protocol () =
  let heap = H.create (Workloads.App_profile.heap_config test_profile) in
  let wc = WC.create heap ~limit_bytes:None in
  let pair = Option.get (WC.new_pair wc) in
  let item = 2 in
  (* arm on first copy *)
  Nvmgc.Flush_tracker.on_copy pair ~first_slot:item;
  check_int "armed" item pair.WC.last;
  (* popping the memorized item while the pair is open re-arms — the
     referent's first item only counts when it landed in the same pair *)
  let item2 = 4 in
  (match
     Nvmgc.Flush_tracker.on_processed pair ~slot:item ~referent_first_slot:item2
       ~referent_home:pair.WC.cache.R.idx
   with
  | Nvmgc.Flush_tracker.Rearmed -> ()
  | Nvmgc.Flush_tracker.Ready _ -> Alcotest.fail "open pair must not be ready"
  | Nvmgc.Flush_tracker.Keep | Nvmgc.Flush_tracker.Lost ->
      Alcotest.fail "same-pair referent must re-arm");
  check_int "re-armed with same-pair referent" item2 pair.WC.last;
  (* filling the pair and popping the memorized item -> Ready *)
  WC.mark_filled pair;
  (match
     Nvmgc.Flush_tracker.on_processed pair ~slot:item2
       ~referent_first_slot:WS.no_slot ~referent_home:WS.no_home
   with
  | Nvmgc.Flush_tracker.Ready p -> check_bool "ready pair is ours" true (p == pair)
  | Nvmgc.Flush_tracker.Keep | Nvmgc.Flush_tracker.Rearmed
  | Nvmgc.Flush_tracker.Lost ->
      Alcotest.fail "filled pair must be ready");
  check_bool "tracking consumed" true (pair.WC.last < 0)

(* Regression: re-arming [pair.last] with a reference whose referent was
   copied into a {e different} pair used to wedge the pair out of async
   flushing — the foreign item pops with its own pair as home, so the
   memorized reference was never consumed.  Post-fix the tracking drops to
   [None] and [ready_on_fill] recovers the pair. *)
let test_flush_tracker_cross_pair_rearm () =
  let heap = H.create (Workloads.App_profile.heap_config test_profile) in
  let wc = WC.create heap ~limit_bytes:None in
  let pair_a = Option.get (WC.new_pair wc) in
  let pair_b = Option.get (WC.new_pair wc) in
  let item = 2 in
  Nvmgc.Flush_tracker.on_copy pair_a ~first_slot:item;
  (* The popped reference's referent was copied into pair_b: its first
     item belongs to pair_b, not pair_a. *)
  let foreign = 4 in
  (match
     Nvmgc.Flush_tracker.on_processed pair_a ~slot:item
       ~referent_first_slot:foreign ~referent_home:pair_b.WC.cache.R.idx
   with
  | Nvmgc.Flush_tracker.Lost -> ()
  | Nvmgc.Flush_tracker.Ready _ -> Alcotest.fail "open pair must not be ready"
  | Nvmgc.Flush_tracker.Keep | Nvmgc.Flush_tracker.Rearmed ->
      Alcotest.fail "foreign referent must drop tracking");
  check_bool "foreign referent must not re-arm" true (pair_a.WC.last < 0);
  WC.mark_filled pair_a;
  check_bool "pair recovers async eligibility on fill" true
    (Nvmgc.Flush_tracker.ready_on_fill pair_a)

let test_flush_tracker_stolen_blocks_async () =
  let heap = H.create (Workloads.App_profile.heap_config test_profile) in
  let wc = WC.create heap ~limit_bytes:None in
  let pair = Option.get (WC.new_pair wc) in
  let item = 2 in
  Nvmgc.Flush_tracker.on_copy pair ~first_slot:item;
  WC.mark_filled pair;
  pair.WC.cache.R.stolen_from <- true;
  (match
     Nvmgc.Flush_tracker.on_processed pair ~slot:item
       ~referent_first_slot:WS.no_slot ~referent_home:WS.no_home
   with
  | Nvmgc.Flush_tracker.Lost -> ()
  | Nvmgc.Flush_tracker.Ready _ ->
      Alcotest.fail "stolen-from region must not flush early"
  | Nvmgc.Flush_tracker.Keep | Nvmgc.Flush_tracker.Rearmed ->
      Alcotest.fail "memorized pop with no referent must drop tracking");
  check_bool "ready_on_fill also blocked" false
    (Nvmgc.Flush_tracker.ready_on_fill pair)

(* ------------------------------------------------------------------ *)
(* Property tests: invariants over random workload shapes/configs      *)

let gen_scenario =
  QCheck2.Gen.(
    let* survival = float_range 0.03 0.3 in
    let* chain = float_range 0.0 0.9 in
    let* entry = float_range 0.01 0.25 in
    let* array_fraction = float_range 0.0 0.9 in
    let* threads = int_range 1 24 in
    let* preset = oneofl [ `Vanilla; `Write_cache; `All; `All_ps ] in
    let* seed = int_range 1 10_000 in
    return (survival, chain, entry, array_fraction, threads, preset, seed))

(* Work stealing: [steal_into] must take the oldest items (front of the
   stack, opposite the owner's LIFO end), append them to the thief in
   push order, leave the rest poppable in LIFO order, and report exactly
   the stolen items' home indices for stolen-from marking. *)
let prop_steal_takes_oldest =
  QCheck2.Test.make ~name:"steal takes oldest items and marks homes"
    ~count:200
    QCheck2.Gen.(pair (list_size (int_range 0 40) bool) (int_range 0 45))
    (fun (has_homes, chunk) ->
      let s = WS.create () and thief = WS.create () in
      let items =
        List.mapi
          (fun i has_home ->
            ((i * 2) + 100, if has_home then i else WS.no_home))
          has_homes
      in
      List.iteri
        (fun i (slot, home) -> WS.push s ~clock:(float_of_int i) ~slot ~home)
        items;
      let marked = ref [] in
      let moved =
        WS.steal_into s ~thief ~chunk ~clock:0.0 ~mark_home:(fun idx ->
            marked := idx :: !marked)
      in
      let n = List.length items in
      let k = min (max chunk 0) n in
      let expected_stolen = List.filteri (fun i _ -> i < k) items in
      let expected_rest = List.filteri (fun i _ -> i >= k) items in
      let drain stack =
        List.rev
          (List.init (WS.length stack) (fun _ ->
               let slot = WS.pop_nonempty stack in
               (slot, WS.popped_home stack)))
      in
      moved = k
      && drain thief = expected_stolen
      && drain s = expected_rest
      && WS.stolen_from_count s = k
      && WS.pushes s = n
      && WS.pushes thief = k
      && List.rev !marked
         = List.filter_map
             (fun (_, home) -> if home >= 0 then Some home else None)
             expected_stolen)

(* Round-trip: an SoA stack driven by a random push/pop/steal script
   behaves exactly like a record-based reference model — same popped
   (slot, home) sequences, lengths and stolen-from markings. *)
let prop_soa_matches_reference_model =
  let module Ref_model = struct
    type item = { slot : int; home : int }
    type t = { mutable items : item list (* top first *) }

    let create () = { items = [] }
    let push t slot home = t.items <- { slot; home } :: t.items

    let pop t =
      match t.items with
      | [] -> None
      | it :: rest ->
          t.items <- rest;
          Some (it.slot, it.home)

    let steal victim ~thief ~chunk ~mark =
      let n = List.length victim.items in
      let k = min chunk n in
      (* bottom of the stack = last k of the top-first list, oldest
         first *)
      let stolen = List.filteri (fun i _ -> i >= n - k) victim.items in
      let stolen = List.rev stolen in
      victim.items <- List.filteri (fun i _ -> i < n - k) victim.items;
      (* thief receives them in push order *)
      List.iter
        (fun it ->
          if it.home >= 0 then mark it.home;
          thief.items <- it :: thief.items)
        stolen;
      k
  end in
  let op_gen =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun slot home -> `Push (slot, home)) (int_range 0 1000)
            (oneof [ return WS.no_home; int_range 0 20 ]);
          return `Pop;
          map (fun chunk -> `Steal chunk) (int_range 1 8);
        ])
  in
  QCheck2.Test.make ~name:"SoA stack matches record reference model"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 120) op_gen)
    (fun ops ->
      let s = WS.create () and thief = WS.create () in
      let rs = Ref_model.create () and rthief = Ref_model.create () in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun op ->
          match op with
          | `Push (slot, home) ->
              WS.push s ~clock:0.0 ~slot ~home;
              Ref_model.push rs slot home
          | `Pop -> begin
              match (WS.pop s, Ref_model.pop rs) with
              | None, None -> ()
              | Some got, Some want -> check (got = want)
              | _ -> check false
            end
          | `Steal chunk ->
              let marked = ref [] and rmarked = ref [] in
              let moved =
                WS.steal_into s ~thief ~chunk ~clock:0.0
                  ~mark_home:(fun i -> marked := i :: !marked)
              in
              let rmoved =
                Ref_model.steal rs ~thief:rthief ~chunk ~mark:(fun i ->
                    rmarked := i :: !rmarked)
              in
              check (moved = rmoved);
              check (!marked = !rmarked))
        ops;
      (* drain both pairs of stacks and compare the tails *)
      let drain stack =
        List.init (WS.length stack) (fun _ ->
            let slot = WS.pop_nonempty stack in
            (slot, WS.popped_home stack))
      in
      let rdrain (r : Ref_model.t) =
        List.map (fun it -> (it.Ref_model.slot, it.Ref_model.home)) r.items
      in
      check (drain s = rdrain rs);
      check (drain thief = rdrain rthief);
      !ok)

(* The min-clock engine's heap against the linear scan it replaced: the
   first index with the strictly smallest key among the live ones.  Keys
   come from a small set with both zeros, so ties are common; after the
   inserts, the root's key moves up, down or stays, or the root is
   popped, and after every step the heap's root must be the scan's
   pick. *)
type heap_op = Set_top of float | Pop

let prop_clock_heap_matches_scan =
  let key = QCheck2.Gen.oneofl [ 0.0; -0.0; 1.0; 2.0; 3.0; 7.5 ] in
  QCheck2.Test.make ~name:"min-clock heap picks what the scan picks"
    ~count:500
    ~print:(fun (inserts, ops) ->
      let f = Printf.sprintf "%h" in
      Printf.sprintf "inserts=[%s] ops=[%s]"
        (String.concat "; "
           (List.map (fun (i, k) -> Printf.sprintf "%d:%s" i (f k)) inserts))
        (String.concat "; "
           (List.map
              (function Set_top k -> "set " ^ f k | Pop -> "pop")
              ops)))
    QCheck2.Gen.(
      int_range 1 12 >>= fun n ->
      shuffle_l (List.init n Fun.id) >>= fun order ->
      list_repeat n key >>= fun keys ->
      list_size (int_range 0 80)
        (frequency [ (5, map (fun k -> Set_top k) key); (1, pure Pop) ])
      >|= fun ops -> (List.combine order keys, ops))
    (fun (inserts, ops) ->
      let n = List.length inserts in
      let h = Nvmgc.Clock_heap.create n in
      let keys = Array.make n nan and live = Array.make n false in
      let scan () =
        let best = ref (-1) in
        for i = 0 to n - 1 do
          if live.(i) && (!best < 0 || keys.(i) < keys.(!best)) then best := i
        done;
        !best
      in
      let agrees () =
        match scan () with
        | -1 -> Nvmgc.Clock_heap.is_empty h
        | i -> (not (Nvmgc.Clock_heap.is_empty h)) && Nvmgc.Clock_heap.top h = i
      in
      Nvmgc.Clock_heap.clear h;
      List.iter
        (fun (i, k) ->
          keys.(i) <- k;
          live.(i) <- true;
          Nvmgc.Clock_heap.add h i k)
        inserts;
      agrees ()
      && List.for_all
           (fun op ->
             if Nvmgc.Clock_heap.is_empty h then true
             else begin
               let i = Nvmgc.Clock_heap.top h in
               (match op with
               | Set_top k ->
                   keys.(i) <- k;
                   Nvmgc.Clock_heap.set_top_key h k
               | Pop ->
                   live.(i) <- false;
                   Nvmgc.Clock_heap.pop h);
               agrees ()
             end)
           ops)

let prop_collection_invariants =
  QCheck2.Test.make ~name:"collection preserves heap integrity" ~count:25
    gen_scenario
    (fun (survival, chain, entry, array_fraction, threads, preset, seed) ->
      let profile =
        Workloads.Apps.renaissance ~name:"prop-app" ~survival ~chain ~entry
          ~array_fraction ~gcs:1 ()
      in
      let env = make_env ~profile ~threads ~seed ~preset () in
      let pause = Nvmgc.Young_gc.collect env.gc ~now_ns:0.0 in
      let visited = check_heap_integrity env in
      ignore visited;
      pause.Nvmgc.Gc_stats.objects_copied
      = env.graph.Workloads.Graph_gen.live_objects
      && pause.Nvmgc.Gc_stats.bytes_copied
         = env.graph.Workloads.Graph_gen.live_bytes
      && List.length (H.young_regions env.heap) = 0)

let prop_optimizations_never_lose_objects =
  QCheck2.Test.make ~name:"all configs evacuate the same live set" ~count:10
    QCheck2.Gen.(pair (float_range 0.05 0.25) (int_range 1 10_000))
    (fun (survival, seed) ->
      let profile =
        Workloads.Apps.renaissance ~name:"prop-app2" ~survival ~gcs:1 ()
      in
      let volume preset =
        let env = make_env ~profile ~threads:8 ~seed ~preset () in
        let pause = Nvmgc.Young_gc.collect env.gc ~now_ns:0.0 in
        ( pause.Nvmgc.Gc_stats.objects_copied,
          pause.Nvmgc.Gc_stats.bytes_copied )
      in
      let v = volume `Vanilla in
      volume `Write_cache = v && volume `All = v && volume `All_ps = v)

(* Edge configurations: degenerate sizes must degrade, not break. *)

let test_tiny_header_map () =
  let config =
    {
      (Workloads.Apps.gc_config test_profile ~preset:`All ~threads:8) with
      Nvmgc.Gc_config.header_map_bytes = 64;
      search_bound = 2;
    }
  in
  let env = make_env_config config in
  let pause = run_and_check env in
  check_bool "tiny map overflows to header installs" true
    (pause.Nvmgc.Gc_stats.header_map_fallbacks > 0)

let test_zero_write_cache () =
  let config =
    {
      (Workloads.Apps.gc_config test_profile ~preset:`All ~threads:8) with
      Nvmgc.Gc_config.write_cache_limit_bytes = Some 0;
    }
  in
  let env = make_env_config config in
  let pause = run_and_check env in
  check_int "nothing cached with a zero budget" 0
    pause.Nvmgc.Gc_stats.bytes_cached;
  check_bool "everything copied directly" true
    (pause.Nvmgc.Gc_stats.bytes_direct > 0)

let test_unlimited_write_cache () =
  let config =
    {
      (Workloads.Apps.gc_config test_profile ~preset:`All ~threads:8) with
      Nvmgc.Gc_config.write_cache_limit_bytes = None;
    }
  in
  let env = make_env_config config in
  let pause = run_and_check env in
  check_int "everything cached with no bound"
    pause.Nvmgc.Gc_stats.bytes_copied pause.Nvmgc.Gc_stats.bytes_cached

(* ------------------------------------------------------------------ *)
(* Header-map cleanup accounting (regressions)                         *)

(* Regression: cleanup traffic used to charge [bytes / nthreads] per
   thread, silently dropping [bytes mod nthreads] whenever the table size
   didn't divide evenly. *)
let test_cleanup_slices_cover_table () =
  List.iter
    (fun (bytes, threads) ->
      let slices = Nvmgc.Young_gc.cleanup_slices ~bytes ~threads in
      check_int
        (Printf.sprintf "slices of %d bytes over %d threads sum exactly"
           bytes threads)
        bytes
        (Array.fold_left ( + ) 0 slices);
      let lo = Array.fold_left min max_int slices
      and hi = Array.fold_left max 0 slices in
      check_bool "slices balanced within one byte" true (hi - lo <= 1))
    [ (1024 * 16, 7); (64 * 16, 24); (100, 3); (5, 8); (0, 4); (4096, 8) ]

(* Regression: [collect] used to recompute header-map occupancy post hoc
   from the install count instead of sampling the table before the clear.
   Entries present in the map that no install of this pause produced
   (e.g. leftovers a racing installer accounted elsewhere) were invisible
   to the recomputation. *)
let test_occupancy_sampled_before_clear () =
  let config = Workloads.Apps.gc_config test_profile ~preset:`All ~threads:8 in
  let env = make_env_config config in
  let map = Option.get (Nvmgc.Young_gc.header_map env.gc) in
  (* Pre-install entries the pause's own installs cannot explain. *)
  let extra = 3 in
  for key = 1 to extra do
    match Nvmgc.Header_map.put map ~key ~value:key with
    | Nvmgc.Header_map.Installed, _ -> ()
    | _ -> Alcotest.fail "pre-install must succeed on an empty map"
  done;
  let pause = Nvmgc.Young_gc.collect env.gc ~now_ns:0.0 in
  let size = float_of_int (Nvmgc.Header_map.size map) in
  let occupied_seen =
    int_of_float (Float.round (pause.Nvmgc.Gc_stats.header_map_occupancy *. size))
  in
  check_int "occupancy reflects the table before the clear"
    (pause.Nvmgc.Gc_stats.header_map_installs + extra)
    occupied_seen;
  check_int "table cleared after the pause" 0 (Nvmgc.Header_map.occupied map)

(* ------------------------------------------------------------------ *)
(* Configuration validation                                            *)

(* Each degenerate value must be refused by [Young_gc.create] itself,
   with the field named.  The tests never collect: before validation
   existed, [threads = 0] reached a division by zero that the [-unsafe]
   build turns into SIGFPE, and a NaN or infinite pause overhead made
   [collect] run without end. *)
let validation_base = Nvmgc.Gc_config.all_opts ~threads:4 ~scale:4096 ()

let expect_rejected ~field config () =
  let heap = H.create H.default_config in
  let memory = Memsim.Memory.create Memsim.Memory.default_config in
  match Nvmgc.Young_gc.create ~heap ~memory config with
  | _ -> Alcotest.failf "%s: degenerate value accepted by create" field
  | exception Invalid_argument msg ->
      let n = String.length field and m = String.length msg in
      let rec has i = i + n <= m && (String.sub msg i n = field || has (i + 1)) in
      check_bool (Printf.sprintf "message %S names %s" msg field) true (has 0)

let rejected_configs =
  let b = validation_base in
  let open Nvmgc.Gc_config in
  [
    ("threads 0", "threads", { b with threads = 0 });
    ("threads -1", "threads", { b with threads = -1 });
    ("pause nan", "pause_overhead_ns",
     { b with pause_overhead_ns = Float.nan });
    ("pause infinity", "pause_overhead_ns",
     { b with pause_overhead_ns = Float.infinity });
    ("pause -1", "pause_overhead_ns",
     { b with pause_overhead_ns = -1.0 });
    ("steal_chunk 0", "steal_chunk", { b with steal_chunk = 0 });
    ("steal_chunk -1", "steal_chunk", { b with steal_chunk = -1 });
    ("search_bound -1", "search_bound", { b with search_bound = -1 });
    ("lab_bytes -1", "lab_bytes", { b with lab_bytes = -1 });
    ("direct_copy -1", "direct_copy_threshold",
     { b with direct_copy_threshold = -1 });
    ("header_map_bytes -1", "header_map_bytes",
     { b with header_map_bytes = -1 });
    ("wc limit -1", "write_cache_limit_bytes",
     { b with write_cache_limit_bytes = Some (-1) });
  ]

(* The smallest sizes the collector rounds up or treats as "none" stay
   valid: test_tiny_header_map and test_zero_write_cache depend on them. *)
let test_validate_keeps_edge_values () =
  let open Nvmgc.Gc_config in
  List.iter
    (fun (name, c) ->
      match validate c with
      | Ok c' -> check_bool (name ^ " returned unchanged") true (c' = c)
      | Error msg -> Alcotest.failf "%s rejected: %s" name msg)
    [
      ("all_opts", validation_base);
      ("vanilla PS", vanilla ~collector:Parallel_scavenge ~threads:1 ~scale:64 ());
      ("header_map_bytes = 64", { validation_base with header_map_bytes = 64 });
      ("write_cache_limit_bytes = Some 0",
       { validation_base with write_cache_limit_bytes = Some 0 });
      ("write_cache_limit_bytes = None",
       { validation_base with write_cache_limit_bytes = None });
      ("search_bound = 0", { validation_base with search_bound = 0 });
      ("pause_overhead_ns = 0", { validation_base with pause_overhead_ns = 0.0 });
    ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "gc"
    [
      ( "properties",
        [
          qc prop_steal_takes_oldest;
          qc prop_soa_matches_reference_model;
          qc prop_collection_invariants;
          qc prop_optimizations_never_lose_objects;
          qc prop_clock_heap_matches_scan;
        ] );
      ( "validation",
        Alcotest.test_case "edge values stay valid" `Quick
          test_validate_keeps_edge_values
        :: List.map
             (fun (name, field, config) ->
               Alcotest.test_case ("rejects " ^ name) `Quick
                 (expect_rejected ~field config))
             rejected_configs );
      ( "edge-configs",
        [
          Alcotest.test_case "tiny header map" `Quick test_tiny_header_map;
          Alcotest.test_case "zero write cache" `Quick test_zero_write_cache;
          Alcotest.test_case "unlimited write cache" `Quick
            test_unlimited_write_cache;
        ] );
      ( "collection",
        [
          Alcotest.test_case "vanilla" `Quick test_vanilla_collection;
          Alcotest.test_case "write cache" `Quick test_write_cache_collection;
          Alcotest.test_case "all opts" `Quick test_all_opts_collection;
          Alcotest.test_case "header map thread gate" `Quick
            test_header_map_gated_by_threads;
          Alcotest.test_case "async flushing" `Quick test_async_collection;
          Alcotest.test_case "parallel scavenge" `Quick test_ps_collection;
          Alcotest.test_case "duplicate refs" `Quick
            test_duplicate_references_deduplicated;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "config-independent semantics" `Quick
            test_semantics_independent_of_config;
          Alcotest.test_case "multiple cycles" `Quick test_multiple_cycles;
          Alcotest.test_case "thread counts" `Quick test_thread_count_coverage;
          Alcotest.test_case "evacuation failure" `Quick test_evacuation_failure;
        ] );
      ( "work_stack",
        [
          Alcotest.test_case "lifo" `Quick test_work_stack_lifo;
          Alcotest.test_case "steal marks region" `Quick
            test_work_stack_steal_marks_region;
        ] );
      ( "write_cache",
        [
          Alcotest.test_case "pairs" `Quick test_write_cache_pairs;
          Alcotest.test_case "flush uncaches" `Quick test_write_cache_flush_uncaches;
        ] );
      ( "flush_tracker",
        [
          Alcotest.test_case "protocol" `Quick test_flush_tracker_protocol;
          Alcotest.test_case "cross-pair re-arm" `Quick
            test_flush_tracker_cross_pair_rearm;
          Alcotest.test_case "stolen blocks async" `Quick
            test_flush_tracker_stolen_blocks_async;
        ] );
      ( "cleanup",
        [
          Alcotest.test_case "slices cover table" `Quick
            test_cleanup_slices_cover_table;
          Alcotest.test_case "occupancy before clear" `Quick
            test_occupancy_sampled_before_clear;
        ] );
    ]
