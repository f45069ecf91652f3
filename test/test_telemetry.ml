(* Tests for the telemetry layer: the JSON codec, span/event invariants
   of a real traced run, Chrome-trace/JSONL round-trips, the metrics
   registry, and — most importantly — that tracing is pure observation:
   simulated results are byte-identical with telemetry on or off. *)

module T = Nvmtrace.Tracer
module J = Nvmtrace.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* A shared traced run: page-rank at 16 threads (header map active),
   a few pauses, tracer + metrics installed for its duration.          *)

let opts =
  {
    Experiments.Runner.default_options with
    threads = 16;
    gc_scale = 0.3;
  }

let with_telemetry f =
  let tracer = Nvmtrace.Tracer.create () in
  let metrics = Nvmtrace.Metrics.create () in
  Nvmtrace.Hooks.set_tracer (Some tracer);
  Nvmtrace.Hooks.set_metrics (Some metrics);
  let r =
    Fun.protect
      ~finally:(fun () ->
        Nvmtrace.Hooks.set_tracer None;
        Nvmtrace.Hooks.set_metrics None)
      f
  in
  (r, tracer, metrics)

let traced =
  lazy
    (with_telemetry (fun () ->
         Experiments.Runner.execute opts Workloads.Apps.page_rank
           Experiments.Runner.All_opts))

let spans tracer =
  List.filter_map
    (function T.Span s -> Some s | T.Instant _ | T.Counter _ -> None)
    (T.events tracer)

let instants tracer =
  List.filter_map
    (function T.Instant i -> Some i | T.Span _ | T.Counter _ -> None)
    (T.events tracer)

let pause_spans tracer =
  List.filter (fun s -> s.T.s_name = "pause") (spans tracer)

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.List [ J.Int 1; J.Float 2.5; J.Null; J.Bool true ]);
        ("s", J.Str "he said \"hi\"\n\t\\");
        ("neg", J.Float (-0.125));
        ("big", J.Int max_int);
        ("empty", J.Obj []);
      ]
  in
  match J.of_string (J.to_string v) with
  | Ok v' -> check_bool "round-trip equal" true (v = v')
  | Error e -> Alcotest.failf "re-parse failed: %s" e

let test_json_floats () =
  (* Every float the printer emits must re-parse to the same value;
     non-finite values degrade to null rather than invalid JSON. *)
  List.iter
    (fun f ->
      match J.of_string (J.to_string (J.Float f)) with
      | Ok v ->
          check_bool
            (Printf.sprintf "float %h survives" f)
            true
            (J.to_float v = Some f)
      | Error e -> Alcotest.failf "float %h: %s" f e)
    [ 0.; 1e-9; 0.1; 3.14159265358979; 1e300; 2046044.999999; 1.5e6 ];
  check_string "nan -> null" "null" (J.to_string (J.Float Float.nan));
  check_string "inf -> null" "null" (J.to_string (J.Float Float.infinity))

let test_json_errors () =
  let bad s =
    match J.of_string s with
    | Ok _ -> Alcotest.failf "%S parsed but should not" s
    | Error _ -> ()
  in
  List.iter bad
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{1:2}" ];
  (match J.of_string "  [1, {\"k\": \"\\u0041\"}]  " with
  | Ok (J.List [ J.Int 1; J.Obj [ ("k", J.Str "A") ] ]) -> ()
  | Ok other -> Alcotest.failf "unexpected parse: %s" (J.to_string other)
  | Error e -> Alcotest.failf "valid doc rejected: %s" e);
  check_bool "member hit" true
    (J.member "k" (J.Obj [ ("k", J.Int 3) ]) = Some (J.Int 3));
  check_bool "member miss" true (J.member "x" (J.Obj []) = None);
  check_bool "member non-obj" true (J.member "x" (J.Int 1) = None)

(* ------------------------------------------------------------------ *)
(* Span invariants on the traced run                                   *)

let test_pause_phases_tile () =
  let _, tracer, _ = Lazy.force traced in
  let pauses = pause_spans tracer in
  check_bool "at least one pause" true (List.length pauses >= 1);
  let lane0 = List.filter (fun s -> s.T.s_lane = 0) (spans tracer) in
  List.iter
    (fun p ->
      let p_end = p.T.s_start_ns +. p.T.s_dur_ns in
      let phases =
        List.filter
          (fun s ->
            s.T.s_name <> "pause"
            && s.T.s_start_ns >= p.T.s_start_ns -. 0.01
            && s.T.s_start_ns +. s.T.s_dur_ns <= p_end +. 0.01)
          lane0
      in
      check_bool "pause has sub-phases" true (List.length phases >= 2);
      List.iter
        (fun s ->
          check_bool
            ("known phase name: " ^ s.T.s_name)
            true
            (List.mem s.T.s_name
               [ "prologue"; "traverse"; "write-back"; "cleanup" ]))
        phases;
      let sorted =
        List.sort (fun a b -> compare a.T.s_start_ns b.T.s_start_ns) phases
      in
      (* Contiguity: phases start where the pause (or the previous phase)
         ends; zero-duration phases are simply not emitted, which keeps
         the telescoping exact. *)
      let final =
        List.fold_left
          (fun cursor s ->
            check_bool "phase contiguous" true
              (Float.abs (s.T.s_start_ns -. cursor) < 0.01);
            s.T.s_start_ns +. s.T.s_dur_ns)
          p.T.s_start_ns sorted
      in
      check_bool "phases tile the pause" true (Float.abs (final -. p_end) < 0.01);
      let sum = List.fold_left (fun acc s -> acc +. s.T.s_dur_ns) 0.0 sorted in
      check_bool "durations sum to the pause" true
        (Float.abs (sum -. p.T.s_dur_ns) < 0.01))
    pauses

let test_events_within_pauses () =
  let _, tracer, _ = Lazy.force traced in
  let pauses = pause_spans tracer in
  let lo =
    List.fold_left (fun a p -> Float.min a p.T.s_start_ns) Float.infinity pauses
  in
  let hi =
    List.fold_left
      (fun a p -> Float.max a (p.T.s_start_ns +. p.T.s_dur_ns))
      Float.neg_infinity pauses
  in
  List.iter
    (fun i ->
      check_bool
        ("instant in pause window: " ^ i.T.i_name)
        true
        (i.T.i_ts_ns >= lo -. 0.01 && i.T.i_ts_ns <= hi +. 0.01))
    (instants tracer);
  List.iter
    (fun s ->
      check_bool
        ("span in pause window: " ^ s.T.s_name)
        true
        (s.T.s_start_ns >= lo -. 0.01
        && s.T.s_start_ns +. s.T.s_dur_ns <= hi +. 0.01))
    (spans tracer)

let test_lane_ordering () =
  let _, tracer, _ = Lazy.force traced in
  let by_lane = Hashtbl.create 32 in
  List.iter
    (fun i ->
      let prev =
        Option.value (Hashtbl.find_opt by_lane i.T.i_lane)
          ~default:Float.neg_infinity
      in
      check_bool "lane instants monotone" true (i.T.i_ts_ns >= prev);
      Hashtbl.replace by_lane i.T.i_lane i.T.i_ts_ns)
    (instants tracer)

let test_taxonomy_present () =
  let _, tracer, _ = Lazy.force traced in
  let names = List.map (fun i -> i.T.i_name) (instants tracer) in
  List.iter
    (fun n -> check_bool ("instant " ^ n ^ " present") true (List.mem n names))
    [ "steal"; "region-grab"; "flush-start"; "flush-complete" ];
  let evac =
    List.filter (fun s -> s.T.s_name = "evacuate") (spans tracer)
  in
  check_bool "per-thread evacuate spans" true (List.length evac >= 2);
  List.iter
    (fun s -> check_bool "evacuate on a thread lane" true (s.T.s_lane >= 1))
    evac;
  let lanes = T.lane_names tracer in
  check_bool "lane 0 named pause" true (List.assoc_opt 0 lanes = Some "pause");
  check_bool "thread lanes named" true
    (List.exists (fun (l, n) -> l = 1 && n = "gc-0") lanes)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let test_chrome_roundtrip () =
  let _, tracer, _ = Lazy.force traced in
  let doc = J.to_string (Nvmtrace.Sinks.chrome_json tracer) in
  (match Nvmtrace.Sinks.validate_trace doc with
  | Error e -> Alcotest.failf "validate_trace: %s" e
  | Ok s ->
      check_int "pause spans" (T.pause_count tracer)
        s.Nvmtrace.Sinks.pause_spans;
      check_bool "several lanes" true (s.Nvmtrace.Sinks.lanes >= 3);
      check_int "all events serialized"
        (T.event_count tracer + s.Nvmtrace.Sinks.lanes + 1)
        s.Nvmtrace.Sinks.total_events);
  match J.of_string doc with
  | Error e -> Alcotest.failf "re-parse: %s" e
  | Ok json ->
      let events =
        match J.member "traceEvents" json with
        | Some (J.List l) -> l
        | Some _ | None -> Alcotest.fail "traceEvents missing"
      in
      let instant_names =
        List.filter_map
          (fun e ->
            match (J.member "ph" e, J.member "name" e) with
            | Some (J.Str "i"), Some (J.Str n) -> Some n
            | _ -> None)
          events
      in
      check_bool "steal instant in JSON" true (List.mem "steal" instant_names);
      check_bool "flush-start instant in JSON" true
        (List.mem "flush-start" instant_names)

let test_jsonl () =
  let _, tracer, _ = Lazy.force traced in
  let path = Filename.temp_file "nvmgc" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Nvmtrace.Sinks.write_jsonl oc tracer);
      let lines = In_channel.with_open_bin path In_channel.input_lines in
      check_bool "one line per event + metadata" true
        (List.length lines > T.event_count tracer);
      List.iter
        (fun line ->
          match J.of_string line with
          | Ok (J.Obj _) -> ()
          | Ok _ -> Alcotest.failf "non-object line: %s" line
          | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e)
        lines)

let test_counter_events () =
  (* Counter ("C") events serialize with their values as args and are
     counted by both validators. *)
  let tracer = T.create () in
  T.set_lane_name tracer ~lane:0 "pause";
  T.span tracer ~lane:0 ~name:"pause" ~start_ns:0.0 ~end_ns:10.0 ();
  T.counter tracer ~name:"bytes/nvm_write" ~ts_ns:5.0
    ~values:[ ("mutator", 3.0); ("evac-copy", 7.5) ];
  let doc = J.to_string (Nvmtrace.Sinks.chrome_json tracer) in
  (match Nvmtrace.Sinks.validate_trace doc with
  | Error e -> Alcotest.failf "validate_trace: %s" e
  | Ok s -> check_int "one counter event" 1 s.Nvmtrace.Sinks.counter_events);
  check_bool "counter name serialized" true
    (contains ~sub:"bytes/nvm_write" doc);
  check_bool "counter value serialized" true (contains ~sub:"7.5" doc)

let test_jsonl_cross_check () =
  let _, tracer, _ = Lazy.force traced in
  let chrome =
    match
      Nvmtrace.Sinks.validate_trace
        (J.to_string (Nvmtrace.Sinks.chrome_json tracer))
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "chrome: %s" e
  in
  let buf = Buffer.create 4096 in
  let path = Filename.temp_file "nvmgc" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Nvmtrace.Sinks.write_jsonl oc tracer);
      Buffer.add_string buf (In_channel.with_open_bin path In_channel.input_all));
  let jsonl =
    match Nvmtrace.Sinks.validate_jsonl (Buffer.contents buf) with
    | Ok s -> s
    | Error e -> Alcotest.failf "jsonl: %s" e
  in
  (match Nvmtrace.Sinks.cross_check chrome jsonl with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cross_check: %s" e);
  (* Regression: a truncated JSONL stream must be caught, either as a
     parse error or as a count mismatch against the Chrome trace. *)
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  let truncated =
    String.concat "\n"
      (List.filteri (fun i _ -> i < List.length lines - 4) lines)
  in
  match Nvmtrace.Sinks.validate_jsonl truncated with
  | Error _ -> ()
  | Ok t ->
      check_bool "truncation detected by cross-check" true
        (Result.is_error (Nvmtrace.Sinks.cross_check chrome t))

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let test_metrics_units () =
  let m = Nvmtrace.Metrics.create () in
  Nvmtrace.Metrics.incr m "c";
  Nvmtrace.Metrics.incr m ~by:41 "c";
  Nvmtrace.Metrics.set_gauge m "g" 0.5;
  Nvmtrace.Metrics.observe m "h" 1e3;
  (* first bucket: inclusive bound *)
  Nvmtrace.Metrics.observe m "h" 1e9;
  Nvmtrace.Metrics.observe m "h" 1e12;
  (* beyond the ladder: overflow slot *)
  let before = Nvmtrace.Metrics.snapshot m in
  check_bool "counter" true (List.assoc "c" before.Nvmtrace.Metrics.counters = 42);
  check_bool "gauge" true (List.assoc "g" before.Nvmtrace.Metrics.gauges = 0.5);
  let h = List.assoc "h" before.Nvmtrace.Metrics.histograms in
  check_int "h.n" 3 h.Nvmtrace.Metrics.n;
  check_int "first bucket inclusive" 1 h.Nvmtrace.Metrics.counts.(0);
  check_int "overflow slot" 1
    h.Nvmtrace.Metrics.counts.(Array.length h.Nvmtrace.Metrics.counts - 1);
  check_bool "min/max" true
    (h.Nvmtrace.Metrics.min = 1e3 && h.Nvmtrace.Metrics.max = 1e12);
  Nvmtrace.Metrics.incr m ~by:8 "c";
  Nvmtrace.Metrics.observe m "h" 2e3;
  let after = Nvmtrace.Metrics.snapshot m in
  let d = Nvmtrace.Metrics.diff ~before ~after in
  check_bool "diff counter" true (List.assoc "c" d.Nvmtrace.Metrics.counters = 8);
  let dh = List.assoc "h" d.Nvmtrace.Metrics.histograms in
  check_int "diff hist n" 1 dh.Nvmtrace.Metrics.n;
  check_bool "diff hist sum" true (Float.abs (dh.Nvmtrace.Metrics.sum -. 2e3) < 1e-9);
  let csv = Nvmtrace.Sinks.metrics_csv after in
  check_bool "csv header" true (contains ~sub:"kind,name,field,value" csv);
  check_bool "csv counter row" true (contains ~sub:"counter,c,count,50" csv)

(* Merge laws.  Ops use small-integer values: integer-valued float sums
   below 2^53 are exact in any association, so snapshot equality is
   byte-for-byte, not approximate. *)
let apply_ops ops =
  let m = Nvmtrace.Metrics.create () in
  List.iter
    (fun (kind, name_idx, v) ->
      let name = [| "a"; "b"; "c" |].(name_idx mod 3) in
      match kind mod 3 with
      | 0 -> Nvmtrace.Metrics.incr m ~by:(v mod 100) name
      | 1 -> Nvmtrace.Metrics.set_gauge m name (float_of_int v)
      | _ -> Nvmtrace.Metrics.observe m name (float_of_int (1 + (v mod 10_000))))
    ops;
  m

let sorted_snapshot m =
  let s = Nvmtrace.Metrics.snapshot m in
  let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  ( by_name s.Nvmtrace.Metrics.counters,
    by_name s.Nvmtrace.Metrics.gauges,
    by_name s.Nvmtrace.Metrics.histograms )

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (triple (int_range 0 2) (int_range 0 2) (int_range 0 10_000)))

let prop_merge_commutative =
  QCheck2.Test.make
    ~name:"merge commutative on counters and histograms" ~count:100
    QCheck2.Gen.(pair gen_ops gen_ops)
    (fun (a, b) ->
      let ab = apply_ops a in
      Nvmtrace.Metrics.merge ~into:ab (apply_ops b);
      let ba = apply_ops b in
      Nvmtrace.Metrics.merge ~into:ba (apply_ops a);
      let ca, _, ha = sorted_snapshot ab and cb, _, hb = sorted_snapshot ba in
      (* gauges are last-wins by design, so they are excluded here *)
      ca = cb && ha = hb)

let prop_merge_associative =
  QCheck2.Test.make ~name:"merge associative (incl. gauges)" ~count:100
    QCheck2.Gen.(triple gen_ops gen_ops gen_ops)
    (fun (a, b, c) ->
      let left = apply_ops a in
      Nvmtrace.Metrics.merge ~into:left (apply_ops b);
      Nvmtrace.Metrics.merge ~into:left (apply_ops c);
      let bc = apply_ops b in
      Nvmtrace.Metrics.merge ~into:bc (apply_ops c);
      let right = apply_ops a in
      Nvmtrace.Metrics.merge ~into:right bc;
      sorted_snapshot left = sorted_snapshot right)

let prop_hist_quantile_bounds =
  (* Geometric buckets: the estimate never undershoots the exact sample
     quantile, and past the first (inclusive) bound it overshoots by
     less than the bucket growth factor of 2. *)
  QCheck2.Test.make ~name:"hist_quantile accuracy bounds" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60) (int_range 1 2_000_000))
        (float_range 0.0 1.0))
    (fun (xs, p) ->
      let m = Nvmtrace.Metrics.create () in
      List.iter (fun v -> Nvmtrace.Metrics.observe m "h" (float_of_int v)) xs;
      let snap = Nvmtrace.Metrics.snapshot m in
      let h = List.assoc "h" snap.Nvmtrace.Metrics.histograms in
      let estimate = Nvmtrace.Metrics.hist_quantile h p in
      let sorted = List.sort compare xs in
      let n = List.length xs in
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
      let exact = float_of_int (List.nth sorted (rank - 1)) in
      estimate >= exact && (exact <= 1e3 || estimate < 2.0 *. exact))

let test_metrics_from_run () =
  let run, tracer, metrics = Lazy.force traced in
  let snap = Nvmtrace.Metrics.snapshot metrics in
  let n_pauses = List.length run.Experiments.Runner.result.Workloads.Mutator.pauses in
  check_int "gc.pauses counter" n_pauses
    (List.assoc "gc.pauses" snap.Nvmtrace.Metrics.counters);
  check_int "one pause span per pause" n_pauses (T.pause_count tracer);
  let h = List.assoc "gc.pause_ns" snap.Nvmtrace.Metrics.histograms in
  check_int "pause_ns histogram count" n_pauses h.Nvmtrace.Metrics.n;
  check_int "runner.runs" 1 (List.assoc "runner.runs" snap.Nvmtrace.Metrics.counters);
  List.iter
    (fun name ->
      check_bool (name ^ " positive") true
        (List.assoc name snap.Nvmtrace.Metrics.counters > 0))
    [
      "gc.objects_copied"; "gc.refs_processed"; "gc.steals";
      "write_cache.pairs_allocated"; "header_map.installs";
    ]

(* ------------------------------------------------------------------ *)
(* Determinism: telemetry is pure observation                          *)

let test_determinism () =
  (* Same options, same seed, no hooks installed. *)
  let plain =
    Experiments.Runner.execute opts Workloads.Apps.page_rank
      Experiments.Runner.All_opts
  in
  let traced_run, _, _ = Lazy.force traced in
  let p r = r.Experiments.Runner.result.Workloads.Mutator.pauses in
  check_int "same pause count" (List.length (p plain))
    (List.length (p traced_run));
  (* Gc_stats.pause is a pure-data record (floats, ints, a traffic
     snapshot, a breakdown array): structural equality here means the
     simulated results are byte-identical with telemetry on and off. *)
  check_bool "pauses byte-identical" true (compare (p plain) (p traced_run) = 0);
  check_bool "result byte-identical" true
    (compare plain.Experiments.Runner.result
       traced_run.Experiments.Runner.result
    = 0);
  check_bool "memory traffic byte-identical" true
    (Memsim.Memory.snapshot plain.Experiments.Runner.memory
    = Memsim.Memory.snapshot traced_run.Experiments.Runner.memory)

(* Same purity property under the fuzzer: a whole campaign — every
   config variant, random heap shapes, random schedules — produces
   byte-identical pause records whether telemetry sinks are installed or
   not. *)
let test_fuzz_determinism () =
  let campaign () = Simcheck.Fuzz.run ~cases:10 ~seed:7 () in
  let with_sinks, _tracer, _metrics = with_telemetry campaign in
  let without = campaign () in
  check_bool "fuzz campaign green" true (Simcheck.Fuzz.ok without);
  List.iter2
    (fun (a : Simcheck.Fuzz.variant_summary)
         (b : Simcheck.Fuzz.variant_summary) ->
      check_string "same variant order" a.Simcheck.Fuzz.variant
        b.Simcheck.Fuzz.variant;
      check_bool
        (Printf.sprintf "pause snapshots byte-identical (%s)"
           a.Simcheck.Fuzz.variant)
        true
        (compare a.Simcheck.Fuzz.pauses b.Simcheck.Fuzz.pauses = 0))
    with_sinks.Simcheck.Fuzz.summaries without.Simcheck.Fuzz.summaries

(* ------------------------------------------------------------------ *)
(* Disabled-path cost: with nothing installed, every emitter is one
   load and compare and allocates nothing — including [count ~by],
   whose argument would be boxed if it were optional.                  *)

let minor_words_of n f =
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  Gc.minor_words () -. w0

let test_disabled_emitters_allocate_nothing () =
  let module H = Nvmtrace.Hooks in
  let saved = H.ambient () in
  H.set_ambient { H.tracer = None; metrics = None; recorder = None };
  Fun.protect ~finally:(fun () -> H.set_ambient saved) @@ fun () ->
  let n = 100_000 in
  (* The empty loop's reading is what the two [Gc.minor_words] reads
     cost themselves. *)
  let base = minor_words_of n ignore in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.0))
        (name ^ " allocates nothing over 100k calls")
        base (minor_words_of n f))
    [
      ("count", fun _ -> H.count ~by:1 "c");
      ("count ~by", fun i -> H.count ~by:i "c");
      ("observe", fun _ -> H.observe "h" 1.0);
      ("gauge", fun _ -> H.gauge "g" 1.0);
      ("span", fun _ -> H.span ~lane:1 ~name:"s" ~start_ns:0.0 ~end_ns:1.0 ());
      ("instant", fun _ -> H.instant ~lane:1 ~name:"i" ~ts_ns:0.0 ());
      ( "traffic",
        fun _ ->
          H.traffic ~from_ns:0.0 ~until_ns:1.0 ~nvm:true ~write:true
            ~cause:Nvmtrace.Recorder.Evac_copy ~bytes:64.0 );
      ("sample", fun _ -> H.sample ~now_ns:0.0 "s" 1.0);
      ("track", fun _ -> H.track ~now_ns:0.0 "t" 1.0);
    ]

(* ------------------------------------------------------------------ *)
(* Gc_stats satellite: percentiles and the pause pretty-printer        *)

let test_gc_stats_percentiles () =
  let run, _, _ = Lazy.force traced in
  let totals = Nvmgc.Young_gc.totals run.Experiments.Runner.gc in
  let p50 = Nvmgc.Gc_stats.p50_pause_ns totals in
  let p95 = Nvmgc.Gc_stats.p95_pause_ns totals in
  let p99 = Nvmgc.Gc_stats.p99_pause_ns totals in
  let p99_9 = Nvmgc.Gc_stats.p99_9_pause_ns totals in
  check_bool "p50 positive" true (p50 > 0.0);
  check_bool "p50 <= p95" true (p50 <= p95);
  check_bool "p95 <= p99" true (p95 <= p99);
  check_bool "p99 <= p99.9" true (p99 <= p99_9);
  check_bool "p99.9 <= max" true
    (p99_9 <= totals.Nvmgc.Gc_stats.max_pause_ns);
  match run.Experiments.Runner.result.Workloads.Mutator.pauses with
  | [] -> Alcotest.fail "no pauses"
  | pr :: _ ->
      let s =
        Format.asprintf "%a" Nvmgc.Gc_stats.pp_pause pr.Workloads.Mutator.pause
      in
      List.iter
        (fun sub -> check_bool ("pp_pause mentions " ^ sub) true (contains ~sub s))
        [ "traverse"; "write-back"; "cleanup"; "copied" ]

let test_console_levels () =
  List.iter
    (fun (s, l) ->
      match Nvmtrace.Console.level_of_string s with
      | Ok l' -> check_bool ("level " ^ s) true (l = l')
      | Error e -> Alcotest.failf "level %s: %s" s e)
    [
      ("error", Logs.Error); ("warning", Logs.Warning); ("info", Logs.Info);
      ("debug", Logs.Debug);
    ];
  check_bool "bad level rejected" true
    (Result.is_error (Nvmtrace.Console.level_of_string "loud"))

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "phases tile pause" `Quick test_pause_phases_tile;
          Alcotest.test_case "events within pauses" `Quick
            test_events_within_pauses;
          Alcotest.test_case "lane ordering" `Quick test_lane_ordering;
          Alcotest.test_case "taxonomy present" `Quick test_taxonomy_present;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "chrome roundtrip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "jsonl" `Quick test_jsonl;
          Alcotest.test_case "counter events" `Quick test_counter_events;
          Alcotest.test_case "jsonl cross-check" `Quick test_jsonl_cross_check;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "units" `Quick test_metrics_units;
          Alcotest.test_case "from run" `Quick test_metrics_from_run;
          QCheck_alcotest.to_alcotest prop_merge_commutative;
          QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_hist_quantile_bounds;
        ] );
      ( "purity",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "fuzz determinism" `Quick test_fuzz_determinism;
          Alcotest.test_case "disabled emitters allocate nothing" `Quick
            test_disabled_emitters_allocate_nothing;
        ] );
      ( "gc_stats",
        [
          Alcotest.test_case "percentiles + pp" `Quick
            test_gc_stats_percentiles;
          Alcotest.test_case "console levels" `Quick test_console_levels;
        ] );
    ]
