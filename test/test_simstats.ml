(* Unit and property tests for the simstats library: vectors, PRNG,
   percentiles, moments, time series and table rendering. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)

(* substring search, to keep the test free of extra dependencies *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let test_vec_basic () =
  let v = Simstats.Vec.create 0 in
  Alcotest.(check bool) "empty" true (Simstats.Vec.is_empty v);
  for i = 1 to 100 do
    Simstats.Vec.push v i
  done;
  check_int "length" 100 (Simstats.Vec.length v);
  check_int "get 0" 1 (Simstats.Vec.get v 0);
  check_int "get 99" 100 (Simstats.Vec.get v 99);
  Alcotest.(check (option int)) "pop" (Some 100) (Simstats.Vec.pop v);
  check_int "length after pop" 99 (Simstats.Vec.length v);
  Simstats.Vec.set v 0 42;
  check_int "set/get" 42 (Simstats.Vec.get v 0);
  Simstats.Vec.clear v;
  Alcotest.(check bool) "cleared" true (Simstats.Vec.is_empty v);
  Alcotest.(check (option int)) "pop empty" None (Simstats.Vec.pop v)

let test_vec_take_front () =
  let v = Simstats.Vec.of_list 0 [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "take 2" [ 1; 2 ] (Simstats.Vec.take_front v 2);
  check_int "remaining" 3 (Simstats.Vec.length v);
  check_int "front is now 3" 3 (Simstats.Vec.get v 0);
  Alcotest.(check (list int)) "take too many" [ 3; 4; 5 ]
    (Simstats.Vec.take_front v 10);
  Alcotest.(check (list int)) "take from empty" []
    (Simstats.Vec.take_front v 1)

let test_vec_bounds () =
  let v = Simstats.Vec.of_list 0 [ 1 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Simstats.Vec.get v 1));
  Alcotest.check_raises "set out of bounds"
    (Invalid_argument "Vec.set: index out of bounds") (fun () ->
      Simstats.Vec.set v (-1) 0)

let test_vec_iterators () =
  let v = Simstats.Vec.of_list 0 [ 1; 2; 3 ] in
  check_int "fold sum" 6 (Simstats.Vec.fold_left ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Simstats.Vec.exists (fun x -> x = 2) v);
  Alcotest.(check bool) "not exists" false
    (Simstats.Vec.exists (fun x -> x = 9) v);
  Alcotest.(check (option int)) "last" (Some 3) (Simstats.Vec.last v);
  let seen = ref [] in
  Simstats.Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check int) "iteri count" 3 (List.length !seen);
  Alcotest.(check (array int)) "to_array" [| 1; 2; 3 |] (Simstats.Vec.to_array v)

(* Model-based property: a Vec behaves like a list under push/pop. *)
let prop_vec_model =
  QCheck2.Test.make ~name:"vec push/pop models a stack" ~count:200
    QCheck2.Gen.(list (pair bool small_int))
    (fun ops ->
      let v = Simstats.Vec.create 0 in
      let model = ref [] in
      List.iter
        (fun (is_push, x) ->
          if is_push then begin
            Simstats.Vec.push v x;
            model := x :: !model
          end
          else begin
            let got = Simstats.Vec.pop v in
            let expect =
              match !model with
              | [] -> None
              | y :: rest ->
                  model := rest;
                  Some y
            in
            if got <> expect then raise Exit
          end)
        ops;
      Simstats.Vec.to_list v = List.rev !model)

(* Model-based property: an Ivec is an int Vec.  Random pushes, pops,
   sets, clears, reversals and shuffles (from equal generator states)
   leave both with the same contents, and every shuffle draws the same
   numbers, so a caller moving between them keeps its generator stream. *)
let prop_ivec_matches_vec =
  QCheck2.Test.make ~name:"ivec matches vec" ~count:200
    QCheck2.Gen.(pair int (list (pair (int_range 0 5) small_int)))
    (fun (seed, ops) ->
      let v = Simstats.Vec.create 0 and iv = Simstats.Ivec.create () in
      let rv = Simstats.Prng.create seed and riv = Simstats.Prng.create seed in
      List.iter
        (fun (op, x) ->
          let n = Simstats.Vec.length v in
          match op with
          | 0 | 1 ->
              Simstats.Vec.push v x;
              Simstats.Ivec.push iv x
          | 2 ->
              let a = Option.value (Simstats.Vec.pop v) ~default:(-1) in
              if Simstats.Ivec.pop_or iv (-1) <> a then raise Exit
          | 3 ->
              if n > 0 then begin
                Simstats.Vec.set v (x mod n) x;
                Simstats.Ivec.set iv (x mod n) x
              end
          | 4 ->
              Simstats.Vec.reverse_in_place v;
              Simstats.Ivec.reverse_in_place iv
          | _ ->
              Simstats.Vec.shuffle rv v;
              Simstats.Ivec.shuffle riv iv)
        ops;
      Simstats.Vec.to_array v = Simstats.Ivec.to_array iv
      && Simstats.Prng.bits rv = Simstats.Prng.bits riv
      &&
      (Simstats.Ivec.clear iv;
       Simstats.Ivec.length iv = 0))

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let test_prng_determinism () =
  let a = Simstats.Prng.create 123 and b = Simstats.Prng.create 123 in
  for _ = 1 to 100 do
    check_int "same stream" (Simstats.Prng.bits a) (Simstats.Prng.bits b)
  done

let test_prng_split_independent () =
  let a = Simstats.Prng.create 5 in
  let child = Simstats.Prng.split a in
  Alcotest.(check bool) "child differs from parent" true
    (Simstats.Prng.bits child <> Simstats.Prng.bits a)

(* The fuzzer hands each subsystem its own split stream and relies on the
   streams never colliding: a state collision would replay one stream
   inside another and silently correlate "independent" choices. *)
let test_prng_split_streams_disjoint () =
  let parent = Simstats.Prng.create 42 in
  let children = Simstats.Prng.split_n parent 3 in
  let streams = Array.append [| parent |] children in
  let seen = Hashtbl.create 65536 in
  Array.iteri
    (fun si rng ->
      for _ = 1 to 10_000 do
        let v = Simstats.Prng.next_int64 rng in
        (match Hashtbl.find_opt seen v with
        | Some other when other <> si ->
            Alcotest.failf "streams %d and %d overlap on %Ld" other si v
        | Some _ | None -> ());
        Hashtbl.replace seen v si
      done)
    streams

let test_prng_split_reseed_reproducible () =
  let mk () = Simstats.Prng.split_n (Simstats.Prng.create 42) 4 in
  let a = mk () and b = mk () in
  Array.iteri
    (fun i ra ->
      for _ = 1 to 100 do
        check_int "same child stream" (Simstats.Prng.bits ra)
          (Simstats.Prng.bits b.(i))
      done)
    a

let prop_prng_split_disjoint =
  QCheck2.Test.make ~name:"split child disjoint from parent" ~count:25
    QCheck2.Gen.small_int (fun seed ->
      let p = Simstats.Prng.create seed in
      let c = Simstats.Prng.split p in
      let seen = Hashtbl.create 4096 in
      for _ = 1 to 1_000 do
        Hashtbl.replace seen (Simstats.Prng.next_int64 p) ()
      done;
      let ok = ref true in
      for _ = 1 to 1_000 do
        if Hashtbl.mem seen (Simstats.Prng.next_int64 c) then ok := false
      done;
      !ok)

let prop_prng_int_range =
  QCheck2.Test.make ~name:"prng int stays in range" ~count:500
    QCheck2.Gen.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Simstats.Prng.create seed in
      let x = Simstats.Prng.int rng n in
      x >= 0 && x < n)

let prop_prng_float_range =
  QCheck2.Test.make ~name:"prng float stays in range" ~count:500
    QCheck2.Gen.small_int
    (fun seed ->
      let rng = Simstats.Prng.create seed in
      let x = Simstats.Prng.float rng 2.5 in
      x >= 0.0 && x < 2.5)

let test_prng_lognormal_mean () =
  let rng = Simstats.Prng.create 9 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Simstats.Prng.lognormal rng ~mean:100.0 ~cv:0.8
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "lognormal mean ~100 (got %.1f)" mean)
    true
    (mean > 90.0 && mean < 110.0)

let test_prng_skewed_index () =
  let rng = Simstats.Prng.create 11 in
  (* strong skew concentrates mass on low indices *)
  let counts = Array.make 10 0 in
  for _ = 1 to 5_000 do
    let i = Simstats.Prng.skewed_index rng ~skew:0.7 10 in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "index 0 dominates" true (counts.(0) > counts.(5));
  (* zero skew is roughly uniform *)
  let rng = Simstats.Prng.create 12 in
  let c0 = ref 0 in
  for _ = 1 to 5_000 do
    if Simstats.Prng.skewed_index rng ~skew:0.0 10 = 0 then incr c0
  done;
  Alcotest.(check bool) "uniform-ish at zero skew" true
    (!c0 > 300 && !c0 < 700)

let test_prng_shuffle_permutes () =
  let rng = Simstats.Prng.create 3 in
  let a = Array.init 50 Fun.id in
  Simstats.Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Percentile                                                          *)

let test_percentile_exact () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0 = min" 1.0 (Simstats.Percentile.of_sorted a 0.0);
  check_float "p100 = max" 5.0 (Simstats.Percentile.of_sorted a 1.0);
  check_float "p50 = median" 3.0 (Simstats.Percentile.of_sorted a 0.5);
  check_float "p25 interpolates" 2.0 (Simstats.Percentile.of_sorted a 0.25)

let test_percentile_reservoir () =
  let r = Simstats.Percentile.create_reservoir () in
  Alcotest.(check bool) "empty gives nan" true
    (Float.is_nan (Simstats.Percentile.p95 r));
  for i = 1 to 100 do
    Simstats.Percentile.add r (float_of_int i)
  done;
  check_int "count" 100 (Simstats.Percentile.count r);
  check_float "mean" 50.5 (Simstats.Percentile.mean r);
  check_float "max" 100.0 (Simstats.Percentile.max_sample r);
  Alcotest.(check bool) "p99 > p95" true
    (Simstats.Percentile.p99 r > Simstats.Percentile.p95 r)

let test_percentile_p99_9 () =
  let r = Simstats.Percentile.create_reservoir () in
  for i = 1 to 2000 do
    Simstats.Percentile.add r (float_of_int i)
  done;
  let p50 = Simstats.Percentile.p50 r in
  let p95 = Simstats.Percentile.p95 r in
  let p99 = Simstats.Percentile.p99 r in
  let p99_9 = Simstats.Percentile.p99_9 r in
  Alcotest.(check bool) "p50 <= p95" true (p50 <= p95);
  Alcotest.(check bool) "p95 <= p99" true (p95 <= p99);
  Alcotest.(check bool) "p99 <= p99.9" true (p99 <= p99_9);
  Alcotest.(check bool) "p99.9 <= max" true
    (p99_9 <= Simstats.Percentile.max_sample r);
  Alcotest.(check bool) "p99.9 above p99 on a long tail" true (p99_9 > p99)

let prop_percentile_bounded =
  QCheck2.Test.make ~name:"percentile within min/max" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 50) (float_range (-1000.) 1000.))
        (float_range 0.0 1.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let q = Simstats.Percentile.of_unsorted a p in
      let lo = List.fold_left Float.min infinity xs
      and hi = List.fold_left Float.max neg_infinity xs in
      q >= lo -. 1e-9 && q <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Moments                                                             *)

let test_moments () =
  let m = Simstats.Moments.create () in
  List.iter (Simstats.Moments.add m) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Simstats.Moments.mean m);
  Alcotest.(check (float 1e-6)) "stddev (sample)" 2.13808993529939
    (Simstats.Moments.stddev m);
  check_float "geomean of powers" 4.0
    (Simstats.Moments.geomean [| 2.0; 8.0 |])

let prop_moments_mean_matches_fold =
  QCheck2.Test.make ~name:"welford mean = arithmetic mean" ~count:200
    QCheck2.Gen.(list_size (int_range 1 100) (float_range (-1e6) 1e6))
    (fun xs ->
      let m = Simstats.Moments.of_array (Array.of_list xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Simstats.Moments.mean m -. mean)
      <= 1e-6 *. (1.0 +. Float.abs mean))

(* ------------------------------------------------------------------ *)
(* Timeseries                                                          *)

let test_timeseries_buckets () =
  let ts = Simstats.Timeseries.create ~bucket_ns:100.0 in
  Simstats.Timeseries.add ts ~time_ns:50.0 10.0;
  Simstats.Timeseries.add ts ~time_ns:150.0 20.0;
  Simstats.Timeseries.add ts ~time_ns:160.0 5.0;
  check_int "length" 2 (Simstats.Timeseries.length ts);
  check_float "bucket 0" 10.0 (Simstats.Timeseries.get ts 0);
  check_float "bucket 1" 25.0 (Simstats.Timeseries.get ts 1);
  check_float "total" 35.0 (Simstats.Timeseries.total ts)

let test_timeseries_spread_conserves_mass () =
  let ts = Simstats.Timeseries.create ~bucket_ns:100.0 in
  Simstats.Timeseries.add_spread ts ~from_ns:50.0 ~until_ns:450.0 100.0;
  Alcotest.(check (float 1e-6)) "mass conserved" 100.0
    (Simstats.Timeseries.total ts);
  (* proportional split: bucket 0 covers 50 of 400 ns -> 12.5 *)
  Alcotest.(check (float 1e-6)) "proportional" 12.5
    (Simstats.Timeseries.get ts 0)

let test_timeseries_degenerate_spread () =
  let ts = Simstats.Timeseries.create ~bucket_ns:100.0 in
  Simstats.Timeseries.add_spread ts ~from_ns:120.0 ~until_ns:120.0 7.0;
  check_float "degenerate goes to one bucket" 7.0 (Simstats.Timeseries.get ts 1)

let prop_spread_mass_conserved =
  QCheck2.Test.make
    ~name:"add_spread conserves mass (incl. degenerate intervals)" ~count:300
    QCheck2.Gen.(
      triple (float_range 0.0 2000.0) (float_range 0.0 2000.0)
        (float_range 0.0 100.0))
    (fun (a, b, v) ->
      let from_ns = Float.min a b and until_ns = Float.max a b in
      let ts = Simstats.Timeseries.create ~bucket_ns:100.0 in
      Simstats.Timeseries.add_spread ts ~from_ns ~until_ns v;
      Float.abs (Simstats.Timeseries.total ts -. v) <= 1e-9 *. (1.0 +. v))

let prop_spread_boundary_no_spill =
  (* An interval ending exactly on a bucket boundary must not leak mass
     into the bucket that starts there: the last touched bucket is the
     one *before* the boundary. *)
  QCheck2.Test.make ~name:"add_spread boundary-aligned end does not spill"
    ~count:200
    QCheck2.Gen.(pair (int_range 0 20) (int_range 1 20))
    (fun (lo, n) ->
      let ts = Simstats.Timeseries.create ~bucket_ns:100.0 in
      let from_ns = float_of_int lo *. 100.0 in
      let until_ns = float_of_int (lo + n) *. 100.0 in
      Simstats.Timeseries.add_spread ts ~from_ns ~until_ns 50.0;
      Simstats.Timeseries.length ts = lo + n)

let prop_resample_identity =
  QCheck2.Test.make ~name:"resample with n >= length is the identity"
    ~count:200
    QCheck2.Gen.(
      pair (int_range 0 10)
        (list_size (int_range 1 30) (float_range 0.0 100.0)))
    (fun (extra, xs) ->
      let ts = Simstats.Timeseries.create ~bucket_ns:1.0 in
      List.iteri
        (fun i v -> Simstats.Timeseries.add ts ~time_ns:(float_of_int i) v)
        xs;
      let len = Simstats.Timeseries.length ts in
      let r = Simstats.Timeseries.resample ts (len + extra) in
      Array.length r = len
      && Array.for_all (fun ok -> ok)
           (Array.mapi (fun i v -> v = Simstats.Timeseries.get ts i) r))

let test_timeseries_resample () =
  let ts = Simstats.Timeseries.create ~bucket_ns:1.0 in
  for i = 0 to 9 do
    Simstats.Timeseries.add ts ~time_ns:(float_of_int i) 1.0
  done;
  let r = Simstats.Timeseries.resample ts 5 in
  check_int "resampled length" 5 (Array.length r);
  Array.iter (fun x -> check_float "uniform stays uniform" 1.0 x) r

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_render () =
  let t =
    Simstats.Table.create ~title:"demo"
      [ Simstats.Table.col ~align:Simstats.Table.Left "name"; Simstats.Table.col "value" ]
  in
  Simstats.Table.add_row t [ "a"; "1.00" ];
  Simstats.Table.add_row t [ "long-name"; "2.50" ];
  let s = Simstats.Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "## demo");
  Alcotest.(check bool) "contains row" true (contains s "long-name")

let test_table_arity () =
  let t = Simstats.Table.create ~title:"x" [ Simstats.Table.col "a" ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Simstats.Table.add_row t [ "1"; "2" ])

let test_sparkline () =
  let s = Simstats.Table.sparkline [| 0.0; 1.0; 2.0; 4.0 |] in
  check_int "one glyph per value" 4 (String.length s);
  Alcotest.(check string) "all-zero is blank" "   "
    (Simstats.Table.sparkline [| 0.0; 0.0; 0.0 |])

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "simstats"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "take_front" `Quick test_vec_take_front;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          qc prop_vec_model;
          qc prop_ivec_matches_vec;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "split streams disjoint" `Quick
            test_prng_split_streams_disjoint;
          Alcotest.test_case "split reseed reproducible" `Quick
            test_prng_split_reseed_reproducible;
          qc prop_prng_split_disjoint;
          Alcotest.test_case "lognormal mean" `Quick test_prng_lognormal_mean;
          Alcotest.test_case "skewed index" `Quick test_prng_skewed_index;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          qc prop_prng_int_range;
          qc prop_prng_float_range;
        ] );
      ( "percentile",
        [
          Alcotest.test_case "exact" `Quick test_percentile_exact;
          Alcotest.test_case "reservoir" `Quick test_percentile_reservoir;
          Alcotest.test_case "p99.9" `Quick test_percentile_p99_9;
          qc prop_percentile_bounded;
        ] );
      ( "moments",
        [
          Alcotest.test_case "mean/stddev/geomean" `Quick test_moments;
          qc prop_moments_mean_matches_fold;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "buckets" `Quick test_timeseries_buckets;
          Alcotest.test_case "spread conserves mass" `Quick
            test_timeseries_spread_conserves_mass;
          Alcotest.test_case "degenerate spread" `Quick
            test_timeseries_degenerate_spread;
          Alcotest.test_case "resample" `Quick test_timeseries_resample;
          qc prop_spread_mass_conserved;
          qc prop_spread_boundary_no_spill;
          qc prop_resample_identity;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
        ] );
    ]
