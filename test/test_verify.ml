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
type oracle_env = {
  heap : H.t;
  gc : Nvmgc.Young_gc.t;
  snap : Verify.Oracle.snapshot;
  pause : Nvmgc.Gc_stats.pause;
  young : O.t list;  (** objects young going into the pause, ascending id *)
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
  let young = ref [] in
  H.iter_bindings
    (fun addr obj -> if is_young_addr heap addr then young := obj :: !young)
    heap;
  let young = List.sort (fun a b -> compare a.O.id b.O.id) !young in
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

(* Young objects the collector kept (still bound at their, now moved,
   address) and the ones it dropped. *)
let evacuated e o = H.lookup_or_dummy e.heap o.O.addr == o
let first_survivor e = List.find (evacuated e) e.young
let first_dead e = List.find (fun o -> not (evacuated e o)) e.young

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
  let obj = some_live_object heap in
  obj.O.forward <- obj.O.addr + 8;
  check_bool "stale forwarding pointer detected" true
    (Verify.Invariants.run gc <> []);
  obj.O.forward <- Simheap.Layout.null;
  check_int "clean again" 0 (List.length (Verify.Invariants.run gc))

let test_invariants_catch_unbound () =
  let heap, gc, _ = quiet_env () in
  let obj = some_live_object heap in
  H.unbind heap obj.O.addr;
  check_bool "missing binding detected" true (Verify.Invariants.run gc <> []);
  H.bind heap obj.O.addr obj;
  check_int "clean again" 0 (List.length (Verify.Invariants.run gc))

let test_invariants_catch_cached_and_cset () =
  let heap, gc, _ = quiet_env () in
  let obj = some_live_object heap in
  obj.O.cached <- true;
  obj.O.phys <- obj.O.addr + 64;
  let r = H.region_of_addr heap obj.O.addr in
  r.R.in_cset <- true;
  let violations = Verify.Invariants.run gc in
  check_bool "cached + phys + cset all reported" true
    (List.length violations >= 3);
  obj.O.cached <- false;
  obj.O.phys <- obj.O.addr;
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
  H.unbind e.heap victim.O.addr;
  check_reports "lost survivor"
    (Printf.sprintf "object %d is live per the oracle but was not evacuated"
       victim.O.id)
    (diff e);
  H.bind e.heap victim.O.addr victim;
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
    ignore (Option.get (H.new_object heap eden ~size:32 ~nfields:1))
  in
  let e = oracle_env ~prepare 31 in
  let victim = first_dead e in
  H.bind e.heap victim.O.addr victim;
  check_reports "dead object re-bound"
    (Printf.sprintf "object %d is dead per the oracle but was evacuated"
       victim.O.id)
    (diff e);
  H.unbind e.heap victim.O.addr;
  check_clean "dead object re-bound undone" (diff e)

let test_oracle_catches_double_binding () =
  let e = oracle_env 31 in
  let victim = first_survivor e in
  let alias = victim.O.addr + 8 in
  H.bind e.heap alias victim;
  let msgs = diff e in
  check_reports "survivor bound twice"
    (Printf.sprintf "object %d survives at two addresses" victim.O.id)
    msgs;
  Alcotest.(check (list string)) "diff is repeatable" msgs (diff e);
  H.unbind e.heap alias;
  check_clean "survivor bound twice undone" (diff e);
  check_clean "diff is repeatable" (diff e)

let test_oracle_catches_wrong_field () =
  let e = oracle_env 31 in
  let young_ids = Hashtbl.create 256 in
  List.iter (fun o -> Hashtbl.replace young_ids o.O.id ()) e.young;
  let young_referent f =
    let o = H.lookup_or_dummy e.heap f in
    if Hashtbl.mem young_ids o.O.id then Some o else None
  in
  (* A survivor with a field that references another young object. *)
  let holder, i, referent =
    List.find_map
      (fun o ->
        if not (evacuated e o) then None
        else
          Seq.find_map
            (fun (i, f) -> Option.map (fun r -> (o, i, r)) (young_referent f))
            (Array.to_seqi o.O.fields))
      e.young
    |> Option.get
  in
  let other =
    List.find (fun o -> evacuated e o && o.O.id <> referent.O.id) e.young
  in
  let original = holder.O.fields.(i) in
  holder.O.fields.(i) <- other.O.addr;
  check_reports "field at the wrong young copy"
    (Printf.sprintf "object %d field %d: oracle young:%d, collector young:%d"
       holder.O.id i referent.O.id other.O.id)
    (diff e);
  holder.O.fields.(i) <- Simheap.Layout.null;
  check_reports "field nulled"
    (Printf.sprintf "object %d field %d: oracle young:%d, collector null"
       holder.O.id i referent.O.id)
    (diff e);
  holder.O.fields.(i) <- original;
  check_clean "wrong field undone" (diff e)

let test_oracle_catches_stale_anchor () =
  let e = oracle_env 31 in
  let root, pre = List.hd e.young_roots in
  let post = root.O.target in
  root.O.target <- pre;
  check_reports "anchor left at its pre-pause address"
    (Printf.sprintf "anchor slot: oracle young:%d, collector out:0x%x"
       (H.lookup_exn e.heap post).O.id pre)
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
  lowest_binding ~pred:(fun obj -> Array.length obj.O.fields > 0) heap

let test_invariants_catch_dangling_field () =
  let heap, gc, _ = quiet_env () in
  let obj = some_holder heap in
  let original = obj.O.fields.(0) in
  let stale = obj.O.addr + 8 in
  obj.O.fields.(0) <- stale;
  check_reports "dangling field"
    (Printf.sprintf "field 0 dangles (0x%x unbound)" stale)
    (Verify.Invariants.run gc);
  obj.O.fields.(0) <- original;
  check_clean "dangling field undone" (Verify.Invariants.run gc)

let test_invariants_catch_dangling_remset () =
  let heap, gc, _ = quiet_env () in
  let obj = some_live_object heap in
  let r = H.region_of_addr heap obj.O.addr in
  let stale = obj.O.addr + 8 in
  Simstats.Vec.push r.R.remset (O.Root { O.root_id = -7; target = stale });
  check_reports "dangling remset entry"
    (Printf.sprintf "remset entry dangles (0x%x unbound)" stale)
    (Verify.Invariants.run gc);
  ignore (Simstats.Vec.pop_exn r.R.remset);
  check_clean "dangling remset entry undone" (Verify.Invariants.run gc)

let test_invariants_catch_dangling_root () =
  let heap, gc, _ = quiet_env () in
  let obj = some_live_object heap in
  let stale = obj.O.addr + 8 in
  let root = H.new_root heap stale in
  check_reports "dangling root"
    (Printf.sprintf "root %d dangles (0x%x unbound)" root.O.root_id stale)
    (Verify.Invariants.run gc);
  root.O.target <- Simheap.Layout.null;
  check_clean "dangling root undone" (Verify.Invariants.run gc)

let test_invariants_catch_used_bytes () =
  let heap, gc, _ = quiet_env () in
  let r = H.region_of_addr heap (some_live_object heap).O.addr in
  r.R.top <- r.R.top + 8;
  check_reports "used_bytes mismatch"
    (Printf.sprintf "used_bytes %d but objects sum to %d bytes" r.R.top
       (r.R.top - 8))
    (Verify.Invariants.run gc);
  r.R.top <- r.R.top - 8;
  check_clean "used_bytes mismatch undone" (Verify.Invariants.run gc)

let test_invariants_catch_rebinding () =
  let heap, gc, _ = quiet_env () in
  let obj = some_live_object heap in
  let other = lowest_binding ~pred:(fun o -> o != obj) heap in
  H.bind heap obj.O.addr other;
  check_reports "address bound to a different object"
    (Printf.sprintf "address table binds a different object (id %d)"
       other.O.id)
    (Verify.Invariants.run gc);
  H.bind heap obj.O.addr obj;
  check_clean "address bound to a different object undone"
    (Verify.Invariants.run gc)

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
        ] );
      ( "gating",
        [ Alcotest.test_case "config flag + env override" `Quick
            test_verify_gating ] );
    ]
