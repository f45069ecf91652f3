(* The layered performance ledger (see README.md).

   ledger.exe --workload W [--seed N] [--rounds R | --seconds S]
              [--trace 0|1] [--out FILE]
   ledger.exe compare PARENT.jsonl CHANGE.jsonl

   The parent process runs each round in a fresh child process of this
   same executable, one child at a time.  A child runs the workload's
   warm-up unit, then one timed round, and reports on its standard output
   in a line protocol (op / round / metric lines).  With --trace 1 the
   parent also runs a traced child (spans, Chrome trace, unit costs), a counting
   child (exact Hostprof switch counts) and a sampling child (SIGPROF),
   and prints the per-layer metrics instead of the end-to-end ones.  The
   last line of standard output is always one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

open Ledger_core

let usage () =
  Printf.eprintf
    "usage: ledger.exe --workload W [--seed N] [--rounds R | --seconds S] \
     [--trace 0|1] [--out FILE]\n\
    \       ledger.exe compare PARENT.jsonl CHANGE.jsonl\n\
     workloads: %s\n"
    (String.concat ", " Workload.names);
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Child side *)

let peak_rss_kb () =
  let prefix = "VmHWM:" in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        Scanf.sscanf_opt
          (String.sub l (String.length prefix) (String.length l - String.length prefix))
          " %f kB" Fun.id
      else None)
    (Host.read_lines "/proc/self/status")
  |> Option.value ~default:nan

let print_round (r : Workload.round) =
  List.iteri
    (fun i (o : Workload.op) ->
      Printf.printf "op %d %.17g %.17g %d %d %d %.17g %s\n" i o.cpu_s o.wall_s
        o.attempted o.failed o.objects o.sim_gc_s o.digest)
    r.ops;
  Printf.printf "round %.17g %.17g %.17g %s %.17g\n" r.wall_s r.cpu_s
    r.minor_words r.digest (peak_rss_kb ())

let print_metric (name, v) = Printf.printf "metric %s %.17g\n" name v

let trace_path (w : Workload.t) ~seed =
  (try Sys.mkdir "_ledger" 0o755 with Sys_error _ -> ());
  Printf.sprintf "_ledger/%s-seed%d.trace.json" w.name seed

let switches name =
  List.find_map
    (fun (n, _, s) -> if n = name then Some s else None)
    (Simstats.Hostprof.alloc_samples ())
  |> Option.value ~default:0

let child mode (w : Workload.t) ~seed =
  match mode with
  | "plain" ->
      Workload.warm_up w ~seed;
      Printf.printf "t0 %.17g\n" (Unix.gettimeofday ());
      print_round (Workload.run_round w ~seed)
  | "traced" ->
      (* Untraced and traced rounds in ABBA order share the moment's host
         load, so the ratio of their walls is the tracing overhead.  The
         first traced round supplies the spans. *)
      Workload.warm_up w ~seed;
      let plain () = (Workload.run_round w ~seed).wall_s in
      let a1 = plain () in
      let round, tr = Workload.traced_round w ~seed in
      let b2 = (fst (Workload.traced_round w ~seed)).wall_s in
      Probe.install_verify_hooks ();
      let a2 = plain () in
      print_round round;
      print_metric
        ("ledger.trace_overhead_share", ((round.wall_s +. b2) /. (a1 +. a2)) -. 1.0);
      let path = trace_path w ~seed in
      Out_channel.with_open_bin path (fun oc ->
          Nvmtrace.Json.to_channel oc (Span.to_chrome tr.Workload.spans));
      Printf.eprintf "ledger: wrote %s (%d spans)\n%!" path
        (Span.length tr.Workload.spans);
      List.iter print_metric (Workload.layer_metrics w tr);
      List.iter print_metric (Micro.all ())
  | "count" ->
      (* Hostprof counts a switch against the phase being left.  An access
         leaves "memsim.access" when it returns, and once more when it
         starts an LLC run walk, which leaves "memsim.llc" once.  So the
         LLC phase's switches count run walks, and the access phase's,
         less those, count accesses. *)
      Simstats.Hostprof.reset ();
      Simstats.Hostprof.set_alloc_tracking true;
      ignore (Workload.run_round w ~seed : Workload.round);
      Simstats.Hostprof.set_alloc_tracking false;
      let llc = switches "memsim.llc" in
      print_metric ("memsim.access_calls", float_of_int (switches "memsim.access" - llc));
      print_metric ("memsim.llc_run_calls", float_of_int llc)
  | "sample" ->
      Sys.set_signal Sys.sigprof
        (Sys.Signal_handle (fun _ -> Simstats.Hostprof.tick ()));
      let timer it = ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = it; it_value = it }) in
      Simstats.Hostprof.reset ();
      timer 0.001;
      let rounds = ref 0 in
      while Simstats.Hostprof.total () < 1000 && !rounds < 50 do
        ignore (Workload.run_round w ~seed : Workload.round);
        incr rounds
      done;
      timer 0.0;
      let samples = Simstats.Hostprof.samples () in
      let count name = Option.value (List.assoc_opt name samples) ~default:0 in
      print_metric
        ( "memsim.sampled_share",
          float_of_int (count "memsim.access" + count "memsim.llc")
          /. float_of_int (max 1 (Simstats.Hostprof.total ())) )
  | m -> fail "unknown child mode %s" m

(* ------------------------------------------------------------------ *)
(* Parent side *)

type result = {
  setup_s : float;
  round : Workload.round option;
  rss_mb : float;
  metrics : (string * float) list;
}

let parse_child ~t_spawn lines =
  let t0 = ref nan and ops = ref [] and round = ref None and metrics = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "t0"; v ] -> t0 := float_of_string v
      | [ "op"; _; cpu; wall; att; failed; obj; sim; digest ] ->
          ops :=
            {
              Workload.cpu_s = float_of_string cpu;
              wall_s = float_of_string wall;
              attempted = int_of_string att;
              failed = int_of_string failed;
              objects = int_of_string obj;
              sim_gc_s = float_of_string sim;
              digest;
            }
            :: !ops
      | [ "round"; wall; cpu; minor; digest; rss ] ->
          round :=
            Some
              ( {
                  Workload.ops = List.rev !ops;
                  wall_s = float_of_string wall;
                  cpu_s = float_of_string cpu;
                  minor_words = float_of_string minor;
                  digest;
                },
                float_of_string rss *. 1024.0 /. 1e6 )
      | [ "metric"; name; v ] -> metrics := (name, float_of_string v) :: !metrics
      | _ -> ())
    lines;
  {
    setup_s = !t0 -. t_spawn;
    round = Option.map fst !round;
    rss_mb = Option.fold ~none:nan ~some:snd !round;
    metrics = List.rev !metrics;
  }

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Run one child to completion; [Error] when it did not exit 0. *)
let spawn mode (w : Workload.t) ~seed =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--child"; mode; "--workload"; w.name; "--seed"; string_of_int seed |]
  in
  let r, wr = Unix.pipe ~cloexec:true () in
  let t_spawn = Unix.gettimeofday () in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match waitpid pid with
  | Unix.WEXITED 0 -> Ok (parse_child ~t_spawn (String.split_on_char '\n' out))
  | Unix.WEXITED n -> Error (Printf.sprintf "%s child exited with %d" mode n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "%s child killed by signal %d" mode n)

type plan = Rounds of int | Seconds of float

(* Other tenants of a shared host only ever add time, and their load
   comes and goes over seconds: 20 s windows of the same build's
   sweep-fig5 rounds had medians 15% apart, while each cell's fastest
   quarter of repetitions moved by 3%.  So an operation's cost is read
   from its quietest quarter of repetitions. *)
let quiet_count n_rounds = (n_rounds + 3) / 4

(* Enough rounds that the quiet quarters pool at least 100 cells, ten
   beyond the 90th percentile. *)
let min_rounds w =
  let per = Workload.ops_per_round w in
  (4 * ((100 + per - 1) / per)) - 3

let run_rounds w ~seed plan errors =
  let start = Unix.gettimeofday () in
  let rec go acc n =
    let elapsed = Unix.gettimeofday () -. start in
    let more =
      match plan with
      | Rounds r -> n < r
      | Seconds s ->
          n < min_rounds w || elapsed +. (elapsed /. float_of_int n) <= s
    in
    if not more then List.rev acc
    else
      match spawn "plain" w ~seed with
      | Ok res -> go (res :: acc) (n + 1)
      | Error e ->
          errors := e :: !errors;
          go acc (n + 1)
  in
  let results = go [] 0 in
  (results, Unix.gettimeofday () -. start)

let rounds_of results = List.filter_map (fun r -> r.round) results

(* The correctness checks: every operation passed, every operation gave
   the same simulated result in every round (traced ones included), and
   the round digest matches its pin at this seed. *)
let check (w : Workload.t) ~seed rounds errors =
  let problem fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun (r : Workload.round) ->
      List.iteri
        (fun i (o : Workload.op) ->
          if o.failed > 0 then problem "op %d: %d of %d failed" i o.failed o.attempted)
        r.ops)
    rounds;
  (match rounds with
  | [] -> problem "no round completed"
  | first :: rest ->
      List.iter
        (fun (r : Workload.round) ->
          if List.length r.ops <> List.length first.ops then
            problem "rounds ran different operation counts"
          else
            List.iteri
              (fun i ((a : Workload.op), (b : Workload.op)) ->
                if a.digest <> b.digest then
                  problem "op %d gave a different result in another round" i)
              (List.combine first.ops r.ops);
          if r.digest <> first.digest then problem "round digests differ")
        rest;
      match List.assoc_opt seed w.pinned with
      | Some pin when pin <> first.digest ->
          problem "digest %s, pinned %s at seed %d" first.digest pin seed
      | _ -> ());
  List.rev !errors

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let objects (r : Workload.round) = sum (fun (o : Workload.op) -> o.objects) r.ops
let attempted (r : Workload.round) = sum (fun (o : Workload.op) -> o.attempted) r.ops
let failed (r : Workload.round) = sum (fun (o : Workload.op) -> o.failed) r.ops

(* Each operation's samples of [f] over the rounds, quietest quarter
   only, in operation order. *)
let quiet_samples f rounds =
  match rounds with
  | [] -> []
  | (first : Workload.round) :: _ ->
      List.mapi
        (fun i _ ->
          List.map (fun (r : Workload.round) -> f (List.nth r.ops i)) rounds
          |> List.sort compare
          |> List.filteri (fun j _ -> j < quiet_count (List.length rounds)))
        first.ops

let sumf xs = List.fold_left ( +. ) 0.0 xs

let end_to_end results =
  let rounds = rounds_of results in
  let cpu = quiet_samples (fun (o : Workload.op) -> o.cpu_s) rounds in
  let wall = quiet_samples (fun (o : Workload.op) -> o.wall_s) rounds in
  let round_cpu = sumf (List.map Stats.median cpu) in
  let per_cpu count =
    match rounds with r :: _ -> float_of_int (count r) /. round_cpu | [] -> nan
  in
  let cell_ms = List.concat_map (List.map (fun s -> s *. 1e3)) cpu in
  [
    ("objects_per_cpu_s", per_cpu objects);
    ("cases_per_cpu_s", per_cpu attempted);
    ("cell_ms_p50", Stats.quantile cell_ms 0.5);
    ("cell_ms_p90", Stats.quantile cell_ms 0.9);
    ("wall_s", sumf (List.map Stats.median wall));
    ("setup_s", Stats.median (List.map (fun r -> r.setup_s) results));
    ("peak_rss_mb", Stats.median (List.map (fun r -> r.rss_mb) results));
    ( "success_rate",
      1.0
      -. float_of_int (sum failed rounds)
         /. float_of_int (max 1 (sum attempted rounds)) );
  ]

let per_layer w ~seed results errors =
  let rounds = rounds_of results in
  let child mode =
    match spawn mode w ~seed with
    | Ok r -> r
    | Error e ->
        errors := e :: !errors;
        { setup_s = nan; round = None; rss_mb = nan; metrics = [] }
  in
  let traced = child "traced" in
  let count = child "count" and sample = child "sample" in
  let derived =
    [
      ( "ocaml.minor_words_per_object",
        Stats.median
          (List.map
             (fun (r : Workload.round) ->
               r.minor_words /. float_of_int (max 1 (objects r)))
             rounds) );
      ( "model.sim_gc_ms",
        match rounds with
        | r :: _ -> 1e3 *. List.fold_left (fun a (o : Workload.op) -> a +. o.sim_gc_s) 0.0 r.ops
        | [] -> nan );
    ]
  in
  let all = traced.metrics @ count.metrics @ sample.metrics @ derived in
  let values =
    List.map
      (fun (m : Metric.t) ->
        match List.assoc_opt m.name all with
        | Some v -> (m.name, v)
        | None ->
            errors := ("no value for " ^ m.name) :: !errors;
            (m.name, nan))
      Metric.per_layer
  in
  (values, Option.to_list traced.round)

let metrics_json values =
  Nvmtrace.Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           Nvmtrace.Json.(Obj [ ("value", Float v); ("unit", Str (Metric.find name).unit) ]) ))
       values)

let append_record path ~(w : Workload.t) ~seed ~trace ~rounds ~correct values =
  let record =
    Nvmtrace.Json.(
      Obj
        [
          ("workload", Str w.name);
          ("seed", Int seed);
          ("trace", Int trace);
          ("rounds", Int rounds);
          ("host", Host.to_json (Host.current ()));
          ("correct", Bool correct);
          ("metrics", Obj (List.map (fun (n, v) -> (n, Float v)) values));
        ])
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
    (fun oc ->
      Nvmtrace.Json.to_channel oc record;
      output_char oc '\n')

let drive (w : Workload.t) ~seed ~plan ~trace ~out =
  let errors = ref [] in
  let results, elapsed = run_rounds w ~seed plan errors in
  let values, traced_rounds =
    if trace then per_layer w ~seed results errors else (end_to_end results, [])
  in
  let rounds = rounds_of results @ traced_rounds in
  let errors = check w ~seed rounds errors in
  let correct = errors = [] in
  List.iter (fun e -> prerr_endline ("ledger: FAIL: " ^ e)) errors;
  Printf.printf "ledger %s: seed %d, %d rounds in %.1f s; %s\n" w.name seed
    (List.length results) elapsed (Host.to_string (Host.current ()));
  (match rounds with
  | r :: _ ->
      Printf.printf "digest %s%s\n" r.digest
        (match List.assoc_opt seed w.pinned with
        | Some pin -> if pin = r.digest then " (pinned: match)" else " (pinned: MISMATCH)"
        | None -> "")
  | [] -> ());
  (if not trace then
     let n =
       List.length
         (List.concat (quiet_samples (fun (o : Workload.op) -> o.cpu_s) (rounds_of results)))
     in
     Printf.printf
       "cell_ms: n=%d (quietest quarter of each cell's rounds), highest \
        percentile with >= 10 samples beyond: %s\n"
       n
       (Option.fold ~none:"none" ~some:Stats.percentile_name (Stats.tail_percentile n)));
  List.iter
    (fun (name, v) -> Printf.printf "%s %.6g %s\n" name v (Metric.find name).unit)
    values;
  Option.iter
    (fun path ->
      append_record path ~w ~seed ~trace:(Bool.to_int trace)
        ~rounds:(List.length results) ~correct values)
    out;
  print_endline
    (Nvmtrace.Json.to_string
       (Nvmtrace.Json.Obj
          [
            ("correct", Bool correct);
            ("attempted", Int (sum attempted rounds));
            ("failed", Int (sum failed rounds));
            ("metrics", metrics_json values);
          ]));
  exit (if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | [ _; "compare"; parent; change ] -> exit (Compare.run parent change)
  | _ :: args ->
      let workload = ref None and seed = ref 42 and plan = ref (Seconds 20.0) in
      let trace = ref false and out = ref None and child_mode = ref None in
      let int s = try int_of_string s with Failure _ -> fail "not an integer: %s" s in
      let rec parse = function
        | "--workload" :: v :: rest ->
            workload := Some v;
            parse rest
        | "--seed" :: v :: rest ->
            seed := int v;
            parse rest
        | "--rounds" :: v :: rest ->
            plan := Rounds (max 1 (int v));
            parse rest
        | "--seconds" :: v :: rest ->
            (match float_of_string_opt v with
            | Some s when s > 0.0 -> plan := Seconds s
            | _ -> fail "--seconds takes a positive number");
            parse rest
        | "--trace" :: v :: rest ->
            trace := (match v with "0" -> false | "1" -> true | _ -> fail "--trace takes 0 or 1");
            parse rest
        | "--out" :: v :: rest ->
            out := Some v;
            parse rest
        | "--child" :: v :: rest ->
            child_mode := Some v;
            parse rest
        | [] -> ()
        | arg :: _ -> fail "unknown argument %s" arg
      in
      parse args;
      let w =
        match !workload with
        | None -> usage ()
        | Some name -> (
            match Workload.find name with
            | Some w -> w
            | None -> fail "unknown workload %s (one of: %s)" name (String.concat ", " Workload.names))
      in
      (match !child_mode with
      | Some mode -> child mode w ~seed:!seed
      | None -> drive w ~seed:!seed ~plan:!plan ~trace:!trace ~out:!out)
  | [] -> usage ()
