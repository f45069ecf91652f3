(* Tests for the verification subsystem itself: the heap-invariant
   verifier and the oracle collector.

   Positive direction: a matrix of seeded workload shapes (pointer-chain,
   wide, array-heavy, mixed, cassandra) runs under all four write-cache x
   header-map combinations, under both sync and async flushing, with the
   hooks armed — any invariant violation or oracle mismatch raises
   [Verify.Hooks.Verification_failure] from inside the pause.

   Negative direction: deliberately corrupted heaps and forged outcomes
   must be reported, proving the checkers can actually fail. *)

module H = Simheap.Heap
module R = Simheap.Region
module O = Simheap.Objmodel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let () = Verify.Hooks.ensure_installed ()

(* ------------------------------------------------------------------ *)
(* Workload shapes                                                     *)

let pointer_chain =
  Workloads.Apps.renaissance ~name:"verify-chain" ~survival:0.2 ~chain:0.9
    ~array_fraction:0.0 ~entry:0.05 ~gcs:2 ()

let wide_graph =
  Workloads.Apps.renaissance ~name:"verify-wide" ~survival:0.15 ~chain:0.0
    ~entry:0.25 ~fields:4.0 ~gcs:2 ()

let array_heavy =
  Workloads.Apps.renaissance ~name:"verify-arrays" ~survival:0.1
    ~array_fraction:0.85 ~mean_array:512.0 ~gcs:2 ()

let mixed =
  Workloads.Apps.renaissance ~name:"verify-mixed" ~survival:0.18 ~chain:0.4
    ~array_fraction:0.3 ~entry:0.12 ~gcs:2 ()

let cassandra = Workloads.Cassandra.server_profile ~write_phase:true

let shapes =
  [ pointer_chain; wide_graph; array_heavy; mixed; cassandra ]

(* The four §3 mechanism combinations, sync and async. *)
let combos =
  List.concat_map
    (fun (wc, hm) ->
      List.map
        (fun fm -> (wc, hm, fm))
        [ Nvmgc.Gc_config.Sync; Nvmgc.Gc_config.Async ])
    [ (false, false); (true, false); (false, true); (true, true) ]

let config_for profile ~write_cache ~header_map ~flush_mode =
  {
    (Workloads.Apps.gc_config profile ~preset:`All ~threads:8) with
    Nvmgc.Gc_config.write_cache;
    header_map;
    flush_mode;
    nt_flush = write_cache;
  }

(* Every pause of every run is checked by the armed hooks; a mismatch
   anywhere raises Verification_failure and fails the test. *)
let test_matrix () =
  List.iter
    (fun (profile : Workloads.App_profile.t) ->
      List.iter
        (fun (write_cache, header_map, flush_mode) ->
          let config = config_for profile ~write_cache ~header_map ~flush_mode in
          let gcs = min 2 profile.Workloads.App_profile.gcs_per_run in
          let result, gc, _memory, _heap =
            Workloads.Mutator.run_fresh ~gcs ~profile ~seed:7 config
          in
          check_bool
            (Printf.sprintf "%s under %s ran verified pauses"
               profile.Workloads.App_profile.name
               (Nvmgc.Gc_config.describe config))
            true
            (List.length result.Workloads.Mutator.pauses >= 1);
          check_bool "collector was verifying" true
            (Nvmgc.Young_gc.verifying gc))
        combos)
    shapes

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let check_reports what phrase msgs =
  if not (List.exists (fun m -> contains m phrase) msgs) then
    Alcotest.failf "%s: expected %S among [%s]" what phrase
      (String.concat "; " msgs)

let check_clean what msgs = Alcotest.(check (list string)) what [] msgs

let is_young_addr heap addr =
  H.in_heap_range heap addr
  &&
  match (H.region_of_addr heap addr).R.kind with
  | R.Eden | R.Survivor -> true
  | R.Old | R.Cache | R.Free -> false

(* A hand-driven pause (verification off in the config, so the test owns
   the snapshot), plus what the detection tests need to know about the
   pre-pause heap.  [prepare] runs after graph generation, before the
   snapshot. *)
(* A young object as it was going into the pause: the pause frees the
   storage of the ones it drops, so their words are not read after it. *)
type young = { obj : O.t; id : int; addr : int; size : int; nfields : int }

type oracle_env = {
  heap : H.t;
  gc : Nvmgc.Young_gc.t;
  snap : Verify.Oracle.snapshot;
  pause : Nvmgc.Gc_stats.pause;
  young : young list;  (** objects young going into the pause, ascending id *)
  young_roots : (O.root * int) list;
      (** roots that referenced a young object, with that pre-pause address *)
}

let oracle_env ?(prepare = fun (_ : H.t) -> ()) seed =
  let profile = mixed in
  let heap = H.create (Workloads.App_profile.heap_config profile) in
  let memory =
    Memsim.Memory.create (Workloads.App_profile.memory_config profile)
  in
  let config =
    {
      (Workloads.Apps.gc_config profile ~preset:`All ~threads:8) with
      Nvmgc.Gc_config.verify = false;
    }
  in
  let gc = Nvmgc.Young_gc.create ~heap ~memory config in
  let old_pool = Workloads.Old_space.create heap in
  let rng = Simstats.Prng.create seed in
  ignore (Workloads.Graph_gen.generate ~heap ~profile ~rng ~old_pool);
  prepare heap;
  let st = H.store heap in
  let young = ref [] in
  H.iter_bindings
    (fun addr obj ->
      if is_young_addr heap addr then
        young :=
          {
            obj;
            id = O.id st obj;
            addr;
            size = O.size st obj;
            nfields = O.nfields st obj;
          }
          :: !young)
    heap;
  let young = List.sort (fun a b -> compare a.id b.id) !young in
  let young_roots =
    List.filter_map
      (fun (root : O.root) ->
        if is_young_addr heap root.O.target then Some (root, root.O.target)
        else None)
      (Simstats.Vec.to_list (H.roots heap))
  in
  let snap = Verify.Oracle.snapshot gc in
  let pause = Nvmgc.Young_gc.collect gc ~now_ns:0.0 in
  let e = { heap; gc; snap; pause; young; young_roots } in
  check_clean "baseline: oracle agrees" (Verify.Oracle.diff snap gc pause);
  e

let diff e = Verify.Oracle.diff e.snap e.gc e.pause

(* Young objects the collector kept (live, and bound at their, now
   moved, address) and the ones it dropped. *)
let evacuated e y =
  let st = H.store e.heap in
  O.is_live st y.obj && H.find e.heap (O.addr st y.obj) = y.obj

let first_survivor e = List.find (evacuated e) e.young
let first_dead e = List.find (fun y -> not (evacuated e y)) e.young

(* Same thing but exercising snapshot/diff explicitly, without going
   through the hooks, so the oracle API is covered directly. *)
let test_explicit_oracle_diff () =
  let e = oracle_env 11 in
  check_clean "invariants hold" (Verify.Invariants.run e.gc)

(* ------------------------------------------------------------------ *)
(* The checkers must be able to fail.                                  *)

let quiet_env () =
  let profile = mixed in
  let heap = H.create (Workloads.App_profile.heap_config profile) in
  let memory =
    Memsim.Memory.create (Workloads.App_profile.memory_config profile)
  in
  let config = Workloads.Apps.gc_config profile ~preset:`All ~threads:8 in
  let gc = Nvmgc.Young_gc.create ~heap ~memory config in
  let old_pool = Workloads.Old_space.create heap in
  let rng = Simstats.Prng.create 23 in
  ignore (Workloads.Graph_gen.generate ~heap ~profile ~rng ~old_pool);
  let pause = Nvmgc.Young_gc.collect gc ~now_ns:0.0 in
  (heap, gc, pause)

(* The lowest-addressed binding satisfying [pred]: the address table's
   iteration order is unspecified, and the detection tests need a
   deterministic victim.  Without [pred] that is a live object reachable
   from the roots — the lowest address sits in the first region the
   generator filled. *)
let lowest_binding ?(pred = fun (_ : O.t) -> true) heap =
  let found = ref None in
  H.iter_bindings
    (fun addr obj ->
      if pred obj then
        match !found with
        | Some (a, _) when a <= addr -> ()
        | _ -> found := Some (addr, obj))
    heap;
  snd (Option.get !found)

let some_live_object heap = lowest_binding heap

let test_invariants_catch_forward () =
  let heap, gc, _ = quiet_env () in
  let st = H.store heap in
  let obj = some_live_object heap in
  O.set_forward st obj (O.addr st obj + 8);
  check_bool "stale forwarding pointer detected" true
    (Verify.Invariants.run gc <> []);
  O.set_forward st obj Simheap.Layout.null;
  check_int "clean again" 0 (List.length (Verify.Invariants.run gc))

let test_invariants_catch_unbound () =
  let heap, gc, _ = quiet_env () in
  let obj = some_live_object heap in
  let addr = O.addr (H.store heap) obj in
  H.unbind heap addr;
  check_bool "missing binding detected" true (Verify.Invariants.run gc <> []);
  H.bind heap addr obj;
  check_int "clean again" 0 (List.length (Verify.Invariants.run gc))

let test_invariants_catch_cached_and_cset () =
  let heap, gc, _ = quiet_env () in
  let st = H.store heap in
  let obj = some_live_object heap in
  let addr = O.addr st obj in
  O.set_cached st obj true;
  O.set_phys st obj (addr + 64);
  let r = H.region_of_addr heap addr in
  r.R.in_cset <- true;
  let violations = Verify.Invariants.run gc in
  check_bool "cached + phys + cset all reported" true
    (List.length violations >= 3);
  O.set_cached st obj false;
  O.set_phys st obj addr;
  r.R.in_cset <- false;
  check_int "clean again" 0 (List.length (Verify.Invariants.run gc))

let test_invariants_catch_header_map_residue () =
  let heap, gc, _ = quiet_env () in
  ignore heap;
  let map = Option.get (Nvmgc.Young_gc.header_map gc) in
  (match Nvmgc.Header_map.put map ~key:7 ~value:9 with
  | Nvmgc.Header_map.Installed, _ -> ()
  | _ -> Alcotest.fail "install into cleared map");
  check_bool "header-map residue detected" true
    (Verify.Invariants.run gc <> []);
  Nvmgc.Header_map.clear map;
  check_int "clean again" 0 (List.length (Verify.Invariants.run gc))

(* Every message class, one corruption each: the phrase must be reported,
   and undoing the corruption must give a clean result again.

   Forge a wrong collection outcome: drop one survivor after the pause
   and the oracle diff must name it. *)
let test_oracle_catches_lost_object () =
  let e = oracle_env 31 in
  let victim = first_survivor e in
  let addr = O.addr (H.store e.heap) victim.obj in
  H.unbind e.heap addr;
  check_reports "lost survivor"
    (Printf.sprintf "object %d is live per the oracle but was not evacuated"
       victim.id)
    (diff e);
  H.bind e.heap addr victim.obj;
  check_clean "lost survivor undone" (diff e);
  (* Forge a wrong copy counter. *)
  let forged =
    { e.pause with Nvmgc.Gc_stats.objects_copied =
        e.pause.Nvmgc.Gc_stats.objects_copied + 1 }
  in
  check_reports "wrong copy counter" "objects copied, oracle expects"
    (Verify.Oracle.diff e.snap e.gc forged)

let test_oracle_catches_rebound_dead () =
  (* The generator builds only live graphs: add one unreachable young
     object for the pause to drop. *)
  let prepare heap =
    let eden = Option.get (H.alloc_region heap R.Eden) in
    check_bool "unreachable object allocated" true
      (H.new_object heap eden ~size:32 ~nfields:1 <> O.none)
  in
  let e = oracle_env ~prepare 31 in
  let victim = first_dead e in
  (* The pause freed the dead object's storage: resurrect it as a
     collector that wrongly kept it would have, live and bound at its
     pre-pause address. *)
  let st = H.store e.heap in
  let resurrected =
    O.alloc st ~id:victim.id ~addr:victim.addr ~size:victim.size
      ~nfields:victim.nfields
  in
  H.bind e.heap victim.addr resurrected;
  check_reports "dead object re-bound"
    (Printf.sprintf "object %d is dead per the oracle but was evacuated"
       victim.id)
    (diff e);
  H.unbind e.heap victim.addr;
  H.free_object e.heap resurrected;
  check_clean "dead object re-bound undone" (diff e)

let test_oracle_catches_double_binding () =
  let e = oracle_env 31 in
  let victim = first_survivor e in
  let alias = O.addr (H.store e.heap) victim.obj + 8 in
  H.bind e.heap alias victim.obj;
  let msgs = diff e in
  check_reports "survivor bound twice"
    (Printf.sprintf "object %d survives at two addresses" victim.id)
    msgs;
  Alcotest.(check (list string)) "diff is repeatable" msgs (diff e);
  H.unbind e.heap alias;
  check_clean "survivor bound twice undone" (diff e);
  check_clean "diff is repeatable" (diff e)

let test_oracle_catches_wrong_field () =
  let e = oracle_env 31 in
  let st = H.store e.heap in
  let young_ids = Hashtbl.create 256 in
  List.iter (fun y -> Hashtbl.replace young_ids y.id ()) e.young;
  let young_referent f =
    let o = H.find e.heap f in
    if o <> O.none && Hashtbl.mem young_ids (O.id st o) then Some (O.id st o)
    else None
  in
  (* A survivor with a field that references another young object. *)
  let holder, i, referent =
    List.find_map
      (fun y ->
        if not (evacuated e y) then None
        else
          Seq.find_map
            (fun i ->
              Option.map (fun r -> (y, i, r))
                (young_referent (O.field st y.obj i)))
            (Seq.init y.nfields Fun.id))
      e.young
    |> Option.get
  in
  let other = List.find (fun y -> evacuated e y && y.id <> referent) e.young in
  let original = O.field st holder.obj i in
  O.set_field st holder.obj i (O.addr st other.obj);
  check_reports "field at the wrong young copy"
    (Printf.sprintf "object %d field %d: oracle young:%d, collector young:%d"
       holder.id i referent other.id)
    (diff e);
  O.set_field st holder.obj i Simheap.Layout.null;
  check_reports "field nulled"
    (Printf.sprintf "object %d field %d: oracle young:%d, collector null"
       holder.id i referent)
    (diff e);
  O.set_field st holder.obj i original;
  check_clean "wrong field undone" (diff e)

let test_oracle_catches_stale_anchor () =
  let e = oracle_env 31 in
  let root, pre = List.hd e.young_roots in
  let post = root.O.target in
  root.O.target <- pre;
  check_reports "anchor left at its pre-pause address"
    (Printf.sprintf "anchor slot: oracle young:%d, collector out:0x%x"
       (O.id (H.store e.heap) (H.lookup_exn e.heap post))
       pre)
    (diff e);
  root.O.target <- post;
  check_clean "stale anchor undone" (diff e)

let test_oracle_catches_moved_out_anchor () =
  (* Two old objects and a root to the first: an anchor outside the
     collection set, which the pause must leave alone. *)
  let old = ref [] in
  let prepare heap =
    H.iter_bindings
      (fun addr _ ->
        if H.in_heap_range heap addr
           && (H.region_of_addr heap addr).R.kind = R.Old
        then old := addr :: !old)
      heap;
    old := List.sort compare !old;
    ignore (H.new_root heap (List.hd !old))
  in
  let e = oracle_env ~prepare 31 in
  let a = List.nth !old 0 and b = List.nth !old 1 in
  let root =
    List.find
      (fun (r : O.root) -> r.O.target = a)
      (Simstats.Vec.to_list (H.roots e.heap))
  in
  root.O.target <- b;
  check_reports "out-of-cset anchor moved"
    (Printf.sprintf "anchor slot: non-young referent moved (0x%x -> 0x%x)" a b)
    (diff e);
  root.O.target <- a;
  check_clean "out-of-cset anchor moved undone" (diff e)

let test_oracle_catches_forged_bytes () =
  let e = oracle_env 31 in
  let forged =
    { e.pause with Nvmgc.Gc_stats.bytes_copied =
        e.pause.Nvmgc.Gc_stats.bytes_copied + 8 }
  in
  check_reports "forged bytes_copied"
    (Printf.sprintf "pause reports %d bytes copied, oracle expects %d"
       (e.pause.Nvmgc.Gc_stats.bytes_copied + 8)
       e.pause.Nvmgc.Gc_stats.bytes_copied)
    (Verify.Oracle.diff e.snap e.gc forged);
  check_clean "genuine counters" (diff e)

let some_holder heap =
  lowest_binding ~pred:(fun obj -> O.nfields (H.store heap) obj > 0) heap

let test_invariants_catch_dangling_field () =
  let heap, gc, _ = quiet_env () in
  let st = H.store heap in
  let obj = some_holder heap in
  let original = O.field st obj 0 in
  let stale = O.addr st obj + 8 in
  O.set_field st obj 0 stale;
  check_reports "dangling field"
    (Printf.sprintf "field 0 dangles (0x%x unbound)" stale)
    (Verify.Invariants.run gc);
  O.set_field st obj 0 original;
  check_clean "dangling field undone" (Verify.Invariants.run gc)

let test_invariants_catch_dangling_remset () =
  let heap, gc, _ = quiet_env () in
  let st = H.store heap in
  let obj = some_live_object heap in
  let r = H.region_of_addr heap (O.addr st obj) in
  let stale = O.addr st obj + 8 in
  (* A holder outside every region (so no other check names it) whose
     one field the remset entry points through. *)
  let holder = O.alloc st ~id:(-7) ~addr:0 ~size:24 ~nfields:1 in
  O.set_field st holder 0 stale;
  Simstats.Ivec.push r.R.remset (O.field_slot holder 0);
  check_reports "dangling remset entry"
    (Printf.sprintf "remset entry dangles (0x%x unbound)" stale)
    (Verify.Invariants.run gc);
  ignore (Simstats.Ivec.pop_or r.R.remset (-1) : int);
  O.free st holder;
  check_clean "dangling remset entry undone" (Verify.Invariants.run gc)

let test_invariants_catch_dangling_root () =
  let heap, gc, _ = quiet_env () in
  let obj = some_live_object heap in
  let stale = O.addr (H.store heap) obj + 8 in
  let root = H.new_root heap stale in
  check_reports "dangling root"
    (Printf.sprintf "root %d dangles (0x%x unbound)" root.O.root_id stale)
    (Verify.Invariants.run gc);
  root.O.target <- Simheap.Layout.null;
  check_clean "dangling root undone" (Verify.Invariants.run gc)

let test_invariants_catch_used_bytes () =
  let heap, gc, _ = quiet_env () in
  let r =
    H.region_of_addr heap (O.addr (H.store heap) (some_live_object heap))
  in
  r.R.top <- r.R.top + 8;
  check_reports "used_bytes mismatch"
    (Printf.sprintf "used_bytes %d but objects sum to %d bytes" r.R.top
       (r.R.top - 8))
    (Verify.Invariants.run gc);
  r.R.top <- r.R.top - 8;
  check_clean "used_bytes mismatch undone" (Verify.Invariants.run gc)

let test_invariants_catch_rebinding () =
  let heap, gc, _ = quiet_env () in
  let st = H.store heap in
  let obj = some_live_object heap in
  let other = lowest_binding ~pred:(fun o -> o <> obj) heap in
  H.bind heap (O.addr st obj) other;
  check_reports "address bound to a different object"
    (Printf.sprintf "address table binds a different object (id %d)"
       (O.id st other))
    (Verify.Invariants.run gc);
  H.bind heap (O.addr st obj) obj;
  check_clean "address bound to a different object undone"
    (Verify.Invariants.run gc)

(* The store's words of [obj] that [O.alloc] resets, to put a freed
   object back exactly: an exact-size free list hands the most recently
   freed block out first, so the same handle comes back. *)
let refill st obj =
  let id = O.id st obj and addr = O.addr st obj and size = O.size st obj in
  let age = O.age st obj in
  let fields = Array.init (O.nfields st obj) (O.field st obj) in
  fun () ->
    let back = O.alloc st ~id ~addr ~size ~nfields:(Array.length fields) in
    check_int "the freed block comes back" obj back;
    O.set_age st back age;
    Array.iteri (O.set_field st back) fields

(* A live object's storage freed while it stays bound and listed: the
   binding, the region list and the live count all disagree with the
   store. *)
let test_invariants_catch_freed_bound () =
  let heap, gc, _ = quiet_env () in
  let st = H.store heap in
  let obj = some_live_object heap in
  let addr = O.addr st obj in
  let restore = refill st obj in
  O.free st obj;
  let msgs = Verify.Invariants.run gc in
  check_reports "freed handle bound"
    (Printf.sprintf "binding 0x%x names freed handle %d" addr obj)
    msgs;
  check_reports "freed handle listed"
    (Printf.sprintf "lists freed handle %d" obj)
    msgs;
  check_reports "live count"
    (Printf.sprintf "object store holds %d live objects but the address \
                     table %d bindings"
       (H.live_objects heap - 1) (H.live_objects heap))
    msgs;
  restore ();
  check_clean "freed handle bound undone" (Verify.Invariants.run gc)

(* A dead object dropped from the address table and freed, but left in
   its region's object list (and so reachable from a slot through it). *)
let test_invariants_catch_freed_listed () =
  let heap, gc, _ = quiet_env () in
  let st = H.store heap in
  let obj = some_holder heap in
  let addr = O.addr st obj in
  let r = H.region_of_addr heap addr in
  let restore = refill st obj in
  H.unbind heap addr;
  O.free st obj;
  Simstats.Ivec.push r.R.remset (O.field_slot obj 0);
  let msgs = Verify.Invariants.run gc in
  check_reports "freed handle listed"
    (Printf.sprintf "lists freed handle %d" obj)
    msgs;
  check_reports "remset entry through a freed holder"
    (Printf.sprintf "remset entry names freed holder handle %d" obj)
    msgs;
  ignore (Simstats.Ivec.pop_or r.R.remset (-1) : int);
  restore ();
  H.bind heap addr obj;
  check_clean "freed handle listed undone" (Verify.Invariants.run gc)

(* A binding corrupted to a handle in a chunk tail the store skipped:
   the tail holds no block, so the handle must read as not live. *)
let test_invariants_catch_tail_handle () =
  let heap, gc, _ = quiet_env () in
  let st = H.store heap in
  let obj = some_live_object heap in
  let addr = O.addr st obj in
  let c = O.chunk_words st in
  (* A full-chunk block fills a chunk, a half-chunk block starts the
     next, and a second full one skips the rest of that chunk. *)
  let block words =
    O.alloc st ~id:(-1) ~addr:0 ~size:(8 * words) ~nfields:(words - 6)
  in
  let first = block c in
  let half = block (c / 2) in
  let full = block c in
  check_int "half block starts a chunk" (first + c) half;
  check_int "full block starts the next" (half + c) full;
  let tail = full - (c / 4) in
  H.bind heap addr tail;
  let msgs = Verify.Invariants.run gc in
  check_reports "tail handle bound"
    (Printf.sprintf "binding 0x%x names freed handle %d" addr tail)
    msgs;
  check_reports "tail handle in place of a listed object"
    (Printf.sprintf "address table binds freed handle %d" tail)
    msgs;
  H.bind heap addr obj;
  List.iter (O.free st) [ full; half; first ];
  check_clean "tail handle bound undone" (Verify.Invariants.run gc)

(* A live handle no binding names: the store leaks it. *)
let test_invariants_catch_store_leak () =
  let heap, gc, _ = quiet_env () in
  let st = H.store heap in
  let orphan = O.alloc st ~id:(-1) ~addr:0 ~size:16 ~nfields:0 in
  check_reports "leaked handle"
    (Printf.sprintf "object store holds %d live objects but the address \
                     table %d bindings"
       (H.live_objects heap + 1) (H.live_objects heap))
    (Verify.Invariants.run gc);
  O.free st orphan;
  check_clean "leaked handle undone" (Verify.Invariants.run gc)

(* ------------------------------------------------------------------ *)
(* Config gating                                                       *)

let test_verify_gating () =
  let profile = mixed in
  let config = Workloads.Apps.gc_config profile ~preset:`Vanilla ~threads:4 in
  (* Presets default to verification on. *)
  check_bool "presets enable verify" true config.Nvmgc.Gc_config.verify;
  match Sys.getenv_opt "NVMGC_VERIFY" with
  | Some _ ->
      (* Environment override in force (e.g. the @verify alias) — the
         config field must be ignored; nothing more to assert here. *)
      ()
  | None ->
      check_bool "verify_active follows the flag" true
        (Nvmgc.Gc_config.verify_active config);
      check_bool "verify_active off when disabled" false
        (Nvmgc.Gc_config.verify_active
           { config with Nvmgc.Gc_config.verify = false })

let () =
  Alcotest.run "verify"
    [
      ( "oracle-matrix",
        [
          Alcotest.test_case "5 shapes x 4 combos x sync/async" `Slow
            test_matrix;
          Alcotest.test_case "explicit snapshot/diff" `Quick
            test_explicit_oracle_diff;
        ] );
      ( "detection",
        [
          Alcotest.test_case "stale forward" `Quick
            test_invariants_catch_forward;
          Alcotest.test_case "unbound survivor" `Quick
            test_invariants_catch_unbound;
          Alcotest.test_case "cached/cset residue" `Quick
            test_invariants_catch_cached_and_cset;
          Alcotest.test_case "header-map residue" `Quick
            test_invariants_catch_header_map_residue;
          Alcotest.test_case "oracle catches lost object" `Quick
            test_oracle_catches_lost_object;
          Alcotest.test_case "oracle: dead object re-bound" `Quick
            test_oracle_catches_rebound_dead;
          Alcotest.test_case "oracle: survivor bound twice" `Quick
            test_oracle_catches_double_binding;
          Alcotest.test_case "oracle: wrong or null field" `Quick
            test_oracle_catches_wrong_field;
          Alcotest.test_case "oracle: anchor left pre-pause" `Quick
            test_oracle_catches_stale_anchor;
          Alcotest.test_case "oracle: out-of-cset anchor moved" `Quick
            test_oracle_catches_moved_out_anchor;
          Alcotest.test_case "oracle: forged bytes_copied" `Quick
            test_oracle_catches_forged_bytes;
          Alcotest.test_case "dangling field" `Quick
            test_invariants_catch_dangling_field;
          Alcotest.test_case "dangling remset entry" `Quick
            test_invariants_catch_dangling_remset;
          Alcotest.test_case "dangling root" `Quick
            test_invariants_catch_dangling_root;
          Alcotest.test_case "used_bytes mismatch" `Quick
            test_invariants_catch_used_bytes;
          Alcotest.test_case "address bound to another object" `Quick
            test_invariants_catch_rebinding;
          Alcotest.test_case "freed handle left bound" `Quick
            test_invariants_catch_freed_bound;
          Alcotest.test_case "freed handle left listed" `Quick
            test_invariants_catch_freed_listed;
          Alcotest.test_case "live handle left unbound" `Quick
            test_invariants_catch_store_leak;
          Alcotest.test_case "skipped-tail handle bound" `Quick
            test_invariants_catch_tail_handle;
        ] );
      ( "gating",
        [ Alcotest.test_case "config flag + env override" `Quick
            test_verify_gating ] );
    ]
