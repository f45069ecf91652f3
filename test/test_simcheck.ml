(* Tests for the simulation-testing harness (lib/simcheck): deterministic
   instantiation, live-graph capture/diff, schedule-seam semantics
   preservation, fuzz-campaign determinism across the full configuration
   matrix, the G1-vs-PS differential property, and the shrinker. *)

module G = Verify.Graph
module Spec = Simcheck.Spec
module Fuzz = Simcheck.Fuzz
module Sched = Simcheck.Sched

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let () = Verify.Hooks.ensure_installed ()

let variant name =
  List.find (fun (v : Fuzz.variant) -> v.name = name) Fuzz.all_variants

let gen_spec seed ~max_objects =
  Spec.generate (Simstats.Prng.create seed) ~max_objects

(* ------------------------------------------------------------------ *)
(* Instantiation and graph capture                                     *)

let test_instantiate_deterministic () =
  for seed = 1 to 5 do
    let spec = gen_spec seed ~max_objects:30 in
    let a = Spec.instantiate spec and b = Spec.instantiate spec in
    check_bool "same spec -> identical live graphs" true
      (G.equal (G.capture a.Spec.heap) (G.capture b.Spec.heap))
  done

let test_graph_diff_detects_corruption () =
  let spec = gen_spec 3 ~max_objects:20 in
  let inst = Spec.instantiate spec in
  let expected = G.capture inst.Spec.heap in
  (* Drop one object's binding: its node disappears and every reference
     to it dangles. *)
  Simheap.Heap.unbind inst.Spec.heap inst.Spec.objects.(0).Simheap.Objmodel.addr;
  let got = G.capture inst.Spec.heap in
  check_bool "diff reports the corruption" true
    (G.diff ~expected ~got <> []);
  check_bool "equal is false" false (G.equal expected got)

(* ------------------------------------------------------------------ *)
(* Schedule seam                                                       *)

(* Any schedule seed must preserve semantics: same surviving graph as the
   min-clock engine, with the verifier and oracle hooks armed. *)
let test_schedules_semantics_preserving () =
  let case = Fuzz.derive_case ~index:0 ~heap_seed:1234 ~sched_seed:0
      ~max_objects:30 in
  let v = variant "g1-all" in
  let reference =
    match
      Fuzz.run_variant ~spec:case.Fuzz.spec ~threads:case.Fuzz.threads
        ~sched_seed:0 v
    with
    | Ok (g, _) -> g
    | Error msgs -> Alcotest.failf "min-clock run failed: %s" (String.concat "; " msgs)
  in
  for sched_seed = 1 to 5 do
    match
      Fuzz.run_variant ~spec:case.Fuzz.spec ~threads:case.Fuzz.threads
        ~sched_seed v
    with
    | Ok (g, _) ->
        check_bool
          (Printf.sprintf "schedule %d agrees with min-clock" sched_seed)
          true (G.equal reference g)
    | Error msgs ->
        Alcotest.failf "schedule %d failed verification: %s" sched_seed
          (String.concat "; " msgs)
  done

(* The seam must actually perturb execution, not just rename it: some
   schedule produces a different simulated pause than the min-clock
   engine on a multi-threaded case. *)
let test_schedules_perturb_timing () =
  let case = Fuzz.derive_case ~index:0 ~heap_seed:99 ~sched_seed:0
      ~max_objects:30 in
  let threads = max 2 case.Fuzz.threads in
  let v = variant "g1-all" in
  let pause_of sched_seed =
    match Fuzz.run_variant ~spec:case.Fuzz.spec ~threads ~sched_seed v with
    | Ok (_, p) -> p.Nvmgc.Gc_stats.pause_ns
    | Error msgs -> Alcotest.failf "run failed: %s" (String.concat "; " msgs)
  in
  let base = pause_of 0 in
  let perturbed = List.init 5 (fun i -> pause_of (i + 1)) in
  check_bool "some schedule changes the simulated pause" true
    (List.exists (fun p -> p <> base) perturbed)

(* Crash, counting and tamper wrappers replace only destructive
   decisions and draw no randomness: driven through one identical call
   sequence — destructive consultations interleaved — a wrapped schedule
   gives exactly the bare schedule's pick/steal/defer/fallback answers.
   Each tamper wrapper answers [true] once, on its own field only. *)
let test_sched_wrappers_keep_stream () =
  let drive (s : Nvmgc.Schedule.t) =
    let early = ref 0 and dropped = ref 0 in
    let answers =
      List.init 300 (fun i ->
          let tid = i mod 8 in
          ignore (s.crash ~step:(i + 1) : bool);
          if s.flush_early ~tid then incr early;
          if s.drop_flush ~tid then incr dropped;
          let thread =
            s.pick_thread ~runnable:(Array.init (1 + (i mod 7)) Fun.id)
          in
          let victims = Array.init (1 + (i mod 3)) Fun.id in
          let victim = s.pick_victim ~thief:tid ~victims in
          let grab = s.defer_region_grab ~tid in
          let fallback = s.force_hm_fallback ~tid in
          let flush = s.defer_async_flush ~tid in
          (thread, victim, grab, fallback, flush))
    in
    (answers, (!early, !dropped))
  in
  List.iter
    (fun seed ->
      let bare, bare_tampers = drive (Sched.of_seed seed) in
      Alcotest.(check (pair int int)) "bare schedule never tampers" (0, 0)
        bare_tampers;
      let counted, count = Sched.counting (Sched.of_seed seed) in
      List.iter
        (fun (name, s, tampers) ->
          let answers, fired = drive s in
          check_bool (name ^ ": same decisions") true (answers = bare);
          Alcotest.(check (pair int int))
            (name ^ ": (flush_early, drop_flush) true answers")
            tampers fired)
        [
          ("with_crash", Sched.with_crash ~crash_step:50 (Sched.of_seed seed),
           (0, 0));
          ("counting", counted, (0, 0));
          ("with_tamper Early_ready",
           Sched.with_tamper Sched.Early_ready (Sched.of_seed seed), (1, 0));
          ("with_tamper Drop_flush",
           Sched.with_tamper Sched.Drop_flush (Sched.of_seed seed), (0, 1));
        ];
      check_int "counting saw every crash point" 300 (count ()))
    [ 1; 7; 42; 20211 ]

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)

let test_campaign_deterministic_and_green () =
  let campaign () = Fuzz.run ~cases:15 ~seed:5 () in
  let r1 = campaign () and r2 = campaign () in
  check_bool "no failures" true (Fuzz.ok r1);
  check_bool "two runs produce identical reports" true (compare r1 r2 = 0);
  check_int "all config variants ran" (List.length Fuzz.variant_names)
    (List.length r1.Fuzz.summaries);
  List.iter
    (fun (s : Fuzz.variant_summary) ->
      check_int
        (Printf.sprintf "variant %s collected every case" s.Fuzz.variant)
        15
        (List.length s.Fuzz.pauses))
    r1.Fuzz.summaries

let test_replay_matches_campaign () =
  (* A one-case campaign and a direct replay of its derived seeds agree. *)
  let r = Fuzz.run ~cases:3 ~seed:11 () in
  check_bool "campaign green" true (Fuzz.ok r);
  let master = Simstats.Prng.create 11 in
  let heap_seed = Simstats.Prng.bits master in
  let sched_seed =
    if Simstats.Prng.int master 10 = 0 then 0 else Simstats.Prng.bits master
  in
  let rr = Fuzz.replay ~heap_seed ~sched_seed () in
  check_bool "replay green" true (Fuzz.ok rr);
  List.iter2
    (fun (a : Fuzz.variant_summary) (b : Fuzz.variant_summary) ->
      check_bool
        (Printf.sprintf "replayed pause identical (%s)" a.Fuzz.variant)
        true
        (compare (List.hd a.Fuzz.pauses) (List.hd b.Fuzz.pauses) = 0))
    (List.map
       (fun (s : Fuzz.variant_summary) ->
         { s with Fuzz.pauses = [ List.hd s.Fuzz.pauses ] })
       r.Fuzz.summaries)
    rr.Fuzz.summaries

(* ------------------------------------------------------------------ *)
(* G1 vs PS differential (satellite)                                   *)

let test_g1_vs_ps_same_survivors () =
  for seed = 21 to 25 do
    let spec = gen_spec seed ~max_objects:35 in
    let run name =
      match
        Fuzz.run_variant ~spec ~threads:4 ~sched_seed:0 (variant name)
      with
      | Ok (g, _) -> g
      | Error msgs ->
          Alcotest.failf "%s failed on seed %d: %s" name seed
            (String.concat "; " msgs)
    in
    let g1 = run "g1-baseline" and ps = run "ps-baseline" in
    check_bool
      (Printf.sprintf "G1 and PS agree on the live set (seed %d)" seed)
      true (G.equal g1 ps);
    let g1_all = run "g1-all" and ps_all = run "ps-all" in
    check_bool
      (Printf.sprintf "fully-optimized G1 and PS agree too (seed %d)" seed)
      true
      (G.equal g1_all ps_all)
  done

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)

let test_shrinker_minimizes () =
  let spec = gen_spec 8 ~max_objects:40 in
  check_bool "spec big enough to shrink" true (Array.length spec.Spec.objects > 5);
  (* Synthetic failure: "at least 5 objects".  The minimal reproducer has
     exactly 5. *)
  let budget = ref 2000 in
  let shrunk =
    Spec.shrink ~budget
      ~check:(fun s -> Array.length s.Spec.objects >= 5)
      spec
  in
  check_int "shrunk to the minimal failing size" 5
    (Array.length shrunk.Spec.objects);
  (* Fields of surviving objects never reference removed indices. *)
  Array.iter
    (fun (os : Spec.obj_spec) ->
      Array.iter
        (function
          | Spec.Young j ->
              check_bool "remapped reference in range" true
                (j >= 0 && j < Array.length shrunk.Spec.objects)
          | Spec.Null | Spec.Old _ -> ())
        os.Spec.fields)
    shrunk.Spec.objects;
  Array.iter
    (fun a ->
      let i = match a with Spec.Root i | Spec.Remset i -> i in
      check_bool "anchor in range" true
        (i >= 0 && i < Array.length shrunk.Spec.objects))
    shrunk.Spec.anchors

let test_shrunk_spec_still_instantiates () =
  let spec = gen_spec 8 ~max_objects:40 in
  let budget = ref 500 in
  let shrunk =
    Spec.shrink ~budget
      ~check:(fun s -> Array.length s.Spec.objects >= 3)
      spec
  in
  let inst = Spec.instantiate shrunk in
  check_bool "shrunk spec instantiates and captures" true
    (Array.length (G.capture inst.Spec.heap).G.nodes > 0)

(* ------------------------------------------------------------------ *)
(* Flight recorder: every shrunk failure ships with the last memory
   history of its reproducer.                                          *)

let test_failure_carries_flight_dump () =
  let tamper name (inst : Spec.instance) =
    if name = "ps-all" then begin
      let unbound = ref false in
      let try_unbind (o : Simheap.Objmodel.t) =
        if
          (not !unbound)
          && Option.is_some (Simheap.Heap.lookup inst.Spec.heap o.addr)
        then begin
          Simheap.Heap.unbind inst.Spec.heap o.addr;
          unbound := true
        end
      in
      Array.iter try_unbind inst.Spec.holders;
      Array.iter try_unbind inst.Spec.objects
    end
  in
  let r =
    Fuzz.run ~cases:4 ~seed:99
      ~variants:[ "g1-baseline"; "ps-all" ]
      ~tamper ()
  in
  check_bool "tampered campaign fails" false (Fuzz.ok r);
  check_bool "at least one failure" true (List.length r.Fuzz.failures > 0);
  List.iter
    (fun (f : Fuzz.failure) ->
      check_bool "flight dump non-empty" true
        (String.length f.Fuzz.flight_dump > 0);
      check_bool "flight dump has the recorder header" true
        (contains ~sub:"flight recorder" f.Fuzz.flight_dump);
      check_bool "flight dump captured traffic" true
        (contains ~sub:"traffic events" f.Fuzz.flight_dump))
    r.Fuzz.failures;
  (* The printed report — what lands in --repro-file and CI logs —
     includes the dump next to the shrunk reproducer. *)
  check_bool "report embeds the flight dump" true
    (contains ~sub:"flight recorder" (Fuzz.report_to_string r))

(* ------------------------------------------------------------------ *)
(* Crash-consistency campaign: crash-point injection + recovery oracle *)

let test_crash_campaign_green_and_deterministic () =
  let campaign () = Fuzz.run_crash ~cases:10 ~seed:42 () in
  let r1 = campaign () and r2 = campaign () in
  check_bool "crash campaign green on the untampered engine" true
    (Fuzz.ok r1);
  check_bool "report flagged as a crash campaign" true r1.Fuzz.crash;
  check_bool "two runs produce byte-identical reports" true
    (Fuzz.report_to_string r1 = Fuzz.report_to_string r2);
  check_int "every async-flush variant ran"
    (List.length Fuzz.crash_variant_names)
    (List.length r1.Fuzz.summaries);
  List.iter
    (fun (s : Fuzz.variant_summary) ->
      check_int
        (Printf.sprintf "variant %s probed every case" s.Fuzz.variant)
        10
        (List.length s.Fuzz.pauses))
    r1.Fuzz.summaries;
  check_bool "summary header names the crash campaign" true
    (contains ~sub:"crash-fuzz" (Fuzz.report_to_string r1))

(* One small tampered campaign shared by the detection, replay and
   repro-file tests below (the shrinker makes it the expensive part). *)
let tampered_report =
  lazy
    (Fuzz.run_crash ~cases:3 ~seed:7 ~tamper:Sched.Drop_flush ())

let test_crash_tamper_caught_and_shrunk () =
  let r = Lazy.force tampered_report in
  check_bool "drop-flush campaign fails" false (Fuzz.ok r);
  check_bool "at least one failure" true (List.length r.Fuzz.failures > 0);
  List.iter
    (fun (f : Fuzz.failure) ->
      (match f.Fuzz.crash_step with
      | Some s -> check_bool "crash step is a crash point" true (s >= 1)
      | None -> Alcotest.fail "crash failure must record its crash step");
      (match f.Fuzz.shrunk_crash_step with
      | Some s -> check_bool "shrunk crash step is a crash point" true (s >= 1)
      | None -> Alcotest.fail "crash failure must record a shrunk crash step");
      check_bool "oracle names the durability violation" true
        (List.exists
           (fun m -> contains ~sub:"durable shadow region" m)
           f.Fuzz.messages);
      check_bool "flight dump present" true
        (contains ~sub:"flight recorder" f.Fuzz.flight_dump);
      let printed = Fuzz.failure_to_string f in
      check_bool "printed failure carries a --crash-step replay line" true
        (contains ~sub:"--crash-step" printed);
      check_bool "replay line spells the crash campaign" true
        (contains ~sub:"fuzz --crash" printed))
    r.Fuzz.failures;
  (* The protocol-decision mutation (answer a Keep with Ready) is caught
     by the same oracle. *)
  let early = Fuzz.run_crash ~cases:3 ~seed:7 ~tamper:Sched.Early_ready () in
  check_bool "early-ready campaign fails" false (Fuzz.ok early)

let test_crash_replay_reproduces () =
  let r = Lazy.force tampered_report in
  let f = List.hd r.Fuzz.failures in
  let rr =
    Fuzz.replay_crash ~heap_seed:f.Fuzz.heap_seed
      ~sched_seed:f.Fuzz.sched_seed
      ~crash_step:(Option.get f.Fuzz.crash_step)
      ~variants:[ f.Fuzz.variant ]
      ~tamper:Sched.Drop_flush ()
  in
  check_bool "replay reproduces the failure" false (Fuzz.ok rr);
  let rf = List.hd rr.Fuzz.failures in
  check_bool "same failing variant" true (rf.Fuzz.variant = f.Fuzz.variant);
  check_bool "same crash step" true (rf.Fuzz.crash_step = f.Fuzz.crash_step);
  check_bool "same oracle messages" true (rf.Fuzz.messages = f.Fuzz.messages)

let test_repro_file_no_clobber () =
  let r = Lazy.force tampered_report in
  let base = Filename.temp_file "nvmgc_crash_repro" ".txt" in
  Sys.remove base;
  let p1 = Fuzz.write_repro_file ~path:base r in
  let p2 = Fuzz.write_repro_file ~path:base r in
  Alcotest.(check string) "first write takes the requested path" base p1;
  Alcotest.(check string) "second write is suffixed, not clobbered"
    (base ^ ".1") p2;
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let c1 = read p1 in
  check_bool "artifact non-empty" true (String.length c1 > 0);
  Alcotest.(check string) "suffixed artifact holds the same reproducers" c1
    (read p2);
  check_bool "artifact carries the replay line" true
    (contains ~sub:"--crash-step" c1);
  Sys.remove p1;
  Sys.remove p2

let () =
  Alcotest.run "simcheck"
    [
      ( "spec",
        [
          Alcotest.test_case "instantiate deterministic" `Quick
            test_instantiate_deterministic;
          Alcotest.test_case "graph diff detects corruption" `Quick
            test_graph_diff_detects_corruption;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "semantics preserving" `Quick
            test_schedules_semantics_preserving;
          Alcotest.test_case "perturbs timing" `Quick
            test_schedules_perturb_timing;
          Alcotest.test_case "wrappers keep the decision stream" `Quick
            test_sched_wrappers_keep_stream;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "campaign deterministic + green" `Quick
            test_campaign_deterministic_and_green;
          Alcotest.test_case "replay matches campaign" `Quick
            test_replay_matches_campaign;
          Alcotest.test_case "G1 vs PS survivors" `Quick
            test_g1_vs_ps_same_survivors;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes to threshold" `Quick
            test_shrinker_minimizes;
          Alcotest.test_case "shrunk spec instantiates" `Quick
            test_shrunk_spec_still_instantiates;
          Alcotest.test_case "failure carries flight dump" `Quick
            test_failure_carries_flight_dump;
        ] );
      ( "crash",
        [
          Alcotest.test_case "campaign green and deterministic" `Quick
            test_crash_campaign_green_and_deterministic;
          Alcotest.test_case "tamper caught and shrunk" `Quick
            test_crash_tamper_caught_and_shrunk;
          Alcotest.test_case "replay reproduces" `Quick
            test_crash_replay_reproduces;
          Alcotest.test_case "repro file never clobbered" `Quick
            test_repro_file_no_clobber;
        ] );
    ]
