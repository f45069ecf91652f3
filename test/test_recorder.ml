(* Tests for the continuous observability recorder: exact attribution
   (per-cause totals sum to the memory system's aggregate counters, no
   tolerance), purity (recording on/off is byte-identical), exporter
   round-trips (CSV, Prometheus, Chrome counter tracks), merge, and the
   flight recorder. *)

module Rec = Nvmtrace.Recorder
module J = Nvmtrace.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let opts =
  {
    Experiments.Runner.default_options with
    threads = 16;
    gc_scale = 0.3;
  }

(* One shared recorded run: page-rank with every optimization on (write
   cache + header map active, so all six causes see traffic). *)
let recorded =
  lazy
    (let recorder = Rec.create () in
     Nvmtrace.Hooks.set_recorder (Some recorder);
     let r =
       Fun.protect
         ~finally:(fun () -> Nvmtrace.Hooks.set_recorder None)
         (fun () ->
           Experiments.Runner.execute opts Workloads.Apps.page_rank
             Experiments.Runner.All_opts)
     in
     (r, recorder))

let cause_sum recorder ~nvm ~write =
  List.fold_left
    (fun acc c -> acc +. Rec.total recorder ~nvm ~write c)
    0.0 Rec.all_causes

(* ------------------------------------------------------------------ *)
(* Exact attribution: the recorder's per-cause totals and the memory
   system's aggregate counters are the same bytes, counted two ways.
   Both accumulate integer-valued floats, so equality is exact — any
   missed or double-counted attribution hook shows up here. *)

let test_totals_match_memory () =
  let run, recorder = Lazy.force recorded in
  let snap = Memsim.Memory.snapshot run.Experiments.Runner.memory in
  let cases =
    [
      ("nvm write", true, true, snap.Memsim.Memory.nvm_write_bytes);
      ("nvm read", true, false, snap.Memsim.Memory.nvm_read_bytes);
      ("dram write", false, true, snap.Memsim.Memory.dram_write_bytes);
      ("dram read", false, false, snap.Memsim.Memory.dram_read_bytes);
    ]
  in
  List.iter
    (fun (name, nvm, write, aggregate) ->
      check_bool (name ^ " aggregate positive") true (aggregate > 0.0);
      Alcotest.(check (float 0.0))
        (name ^ " cause sum = aggregate")
        aggregate
        (cause_sum recorder ~nvm ~write);
      Alcotest.(check (float 0.0))
        (name ^ " space_total = aggregate")
        aggregate
        (Rec.space_total recorder ~nvm ~write))
    cases

let test_all_causes_attributed () =
  let _, recorder = Lazy.force recorded in
  List.iter
    (fun c ->
      let any =
        List.exists
          (fun (nvm, write) -> Rec.total recorder ~nvm ~write c > 0.0)
          [ (true, true); (true, false); (false, true); (false, false) ]
      in
      check_bool (Rec.cause_name c ^ " saw traffic") true any)
    Rec.all_causes

let test_gauges_and_tracks () =
  let run, recorder = Lazy.force recorded in
  let totals = Nvmgc.Young_gc.totals run.Experiments.Runner.gc in
  Alcotest.(check (float 0.0))
    "live-bytes track = bytes copied"
    (float_of_int totals.Nvmgc.Gc_stats.bytes_copied)
    (Rec.track_total recorder Rec.live_bytes_track);
  let wa = Rec.write_amplification recorder in
  check_bool "write amplification finite" true (Float.is_finite wa);
  check_bool "write amplification >= 1" true (wa >= 1.0);
  List.iter
    (fun name ->
      check_bool (name ^ " sampled") true
        (Rec.last_sample recorder name <> None))
    [
      "gc.evac_throughput_mbps"; "gc.wc_hit_rate"; "gc.flush_queue_depth";
      "heap.free_regions"; "hm.occupancy";
    ]

(* ------------------------------------------------------------------ *)
(* Purity: recording must not perturb simulated results. *)

let test_recording_pure () =
  let plain =
    Experiments.Runner.execute opts Workloads.Apps.page_rank
      Experiments.Runner.All_opts
  in
  let recorded_run, _ = Lazy.force recorded in
  let p r = r.Experiments.Runner.result.Workloads.Mutator.pauses in
  check_bool "pauses byte-identical" true
    (compare (p plain) (p recorded_run) = 0);
  check_bool "memory traffic byte-identical" true
    (Memsim.Memory.snapshot plain.Experiments.Runner.memory
    = Memsim.Memory.snapshot recorded_run.Experiments.Runner.memory)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let test_csv () =
  let _, recorder = Lazy.force recorded in
  let csv = Rec.to_csv recorder in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  (match lines with
  | header :: _ ->
      check_bool "header starts with window_ms" true
        (contains ~sub:"window_ms" header);
      List.iter
        (fun col -> check_bool ("header has " ^ col) true (contains ~sub:col header))
        [ "nvm_write_mutator"; "nvm_write_evac-copy"; "dram_read_header-map" ]
  | [] -> Alcotest.fail "empty CSV");
  check_int "one row per window + header + total"
    (Rec.windows recorder + 2)
    (List.length lines);
  let last = List.nth lines (List.length lines - 1) in
  check_bool "total row present" true
    (String.length last >= 5 && String.sub last 0 5 = "total");
  (* The total row carries the exact accumulators: re-parsing the
     nvm-write cause cells and summing them reproduces the aggregate. *)
  let header_cols =
    String.split_on_char ',' (List.hd lines) |> Array.of_list
  in
  let total_cols = String.split_on_char ',' last |> Array.of_list in
  let sum = ref 0.0 in
  Array.iteri
    (fun i col ->
      if
        String.length col >= 10
        && String.sub col 0 10 = "nvm_write_"
        && i < Array.length total_cols
      then sum := !sum +. float_of_string total_cols.(i))
    header_cols;
  Alcotest.(check (float 0.0))
    "CSV total row round-trips the aggregate"
    (Rec.space_total recorder ~nvm:true ~write:true)
    !sum

let test_prometheus () =
  let _, recorder = Lazy.force recorded in
  let prom = Rec.to_prometheus recorder in
  List.iter
    (fun sub -> check_bool ("exposition has " ^ sub) true (contains ~sub prom))
    [
      "# TYPE nvmgc_traffic_bytes_total counter";
      "space=\"nvm\"";
      "dir=\"write\"";
      "cause=\"evac-copy\"";
      "nvmgc_write_amplification";
      "nvmgc_sample_last{name=\"gc.wc_hit_rate\"}";
    ];
  (* Every sample line's value must round-trip through float_of_string
     to the recorded value (%.17g), checked on the aggregate. *)
  let expect = Rec.space_total recorder ~nvm:true ~write:true in
  let found = ref 0.0 in
  List.iter
    (fun line ->
      if
        contains ~sub:"nvmgc_traffic_bytes_total" line
        && contains ~sub:"space=\"nvm\"" line
        && contains ~sub:"dir=\"write\"" line
      then
        match String.rindex_opt line ' ' with
        | Some i ->
            found :=
              !found
              +. float_of_string
                   (String.sub line (i + 1) (String.length line - i - 1))
        | None -> ())
    (String.split_on_char '\n' prom);
  Alcotest.(check (float 0.0)) "prometheus values round-trip" expect !found

let test_counter_tracks () =
  let _, recorder = Lazy.force recorded in
  let tracer = Nvmtrace.Tracer.create () in
  Nvmtrace.Tracer.set_lane_name tracer ~lane:0 "pause";
  Nvmtrace.Tracer.span tracer ~lane:0 ~name:"pause" ~start_ns:0.0
    ~end_ns:1.0 ();
  Rec.add_counter_tracks recorder tracer;
  let doc = J.to_string (Nvmtrace.Sinks.chrome_json tracer) in
  match Nvmtrace.Sinks.validate_trace doc with
  | Error e -> Alcotest.failf "validate_trace: %s" e
  | Ok s ->
      check_bool "counter events emitted" true
        (s.Nvmtrace.Sinks.counter_events > 0);
      check_bool "write-amplification track present" true
        (contains ~sub:"write-amplification" doc)

(* ------------------------------------------------------------------ *)
(* Merge: per-task recorders folded into the parent must preserve the
   exact totals (same integer-valued floats, just regrouped). *)

let test_merge_exact () =
  let _, recorder = Lazy.force recorded in
  let a = Rec.create () and b = Rec.create () in
  Nvmtrace.Hooks.set_recorder (Some a);
  let r1 =
    Fun.protect
      ~finally:(fun () -> Nvmtrace.Hooks.set_recorder None)
      (fun () ->
        Experiments.Runner.execute opts Workloads.Apps.page_rank
          Experiments.Runner.All_opts)
  in
  ignore (r1 : Experiments.Runner.run);
  Rec.merge ~into:b a;
  List.iter
    (fun (nvm, write) ->
      List.iter
        (fun c ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "merged total %s nvm=%b write=%b"
               (Rec.cause_name c) nvm write)
            (Rec.total recorder ~nvm ~write c)
            (Rec.total b ~nvm ~write c))
        Rec.all_causes)
    [ (true, true); (true, false); (false, true); (false, false) ];
  Alcotest.(check (float 0.0))
    "merged live-bytes track"
    (Rec.track_total recorder Rec.live_bytes_track)
    (Rec.track_total b Rec.live_bytes_track);
  check_bool "merge rejects window mismatch" true
    (try
       Rec.merge ~into:(Rec.create ~window_ns:2e6 ()) (Rec.create ());
       false
     with Invalid_argument _ -> true)

(* A window must be a positive, finite width: NaN slips past a plain
   [<= 0] check and infinity makes every event land in window 0. *)
let test_create_rejects_degenerate_windows () =
  List.iter
    (fun w ->
      check_bool
        (Printf.sprintf "window_ns %g rejected" w)
        true
        (try
           ignore (Rec.create ~window_ns:w ());
           false
         with Invalid_argument _ -> true))
    [ nan; infinity; neg_infinity; 0.0; -1.0 ]

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)

let test_flight_dump () =
  let _, recorder = Lazy.force recorded in
  let dump = Rec.flight_dump recorder in
  check_bool "dump non-empty" true (String.length dump > 0);
  check_bool "dump has the event-count header" true
    (contains ~sub:"traffic events" dump);
  (* The ring holds the run's *last* events — whatever channel that is,
     some per-cause cell must be printed. *)
  check_bool "dump mentions a cause channel" true
    (contains ~sub:"_write_" dump || contains ~sub:"_read_" dump);
  let lines = List.length (String.split_on_char '\n' dump) in
  check_bool "dump bounded" true (lines <= 128);
  let empty = Rec.flight_dump (Rec.create ()) in
  check_bool "empty recorder says so" true
    (contains ~sub:"no traffic" empty)

let () =
  Alcotest.run "recorder"
    [
      ( "attribution",
        [
          Alcotest.test_case "totals = memory aggregates" `Quick
            test_totals_match_memory;
          Alcotest.test_case "all causes attributed" `Quick
            test_all_causes_attributed;
          Alcotest.test_case "gauges and tracks" `Quick test_gauges_and_tracks;
        ] );
      ( "purity",
        [ Alcotest.test_case "recording pure" `Quick test_recording_pure ] );
      ( "exporters",
        [
          Alcotest.test_case "csv" `Quick test_csv;
          Alcotest.test_case "prometheus" `Quick test_prometheus;
          Alcotest.test_case "counter tracks" `Quick test_counter_tracks;
        ] );
      ( "merge", [ Alcotest.test_case "exact" `Quick test_merge_exact ] );
      ( "create",
        [
          Alcotest.test_case "rejects degenerate windows" `Quick
            test_create_rejects_degenerate_windows;
        ] );
      ( "flight",
        [ Alcotest.test_case "dump" `Quick test_flight_dump ] );
    ]
