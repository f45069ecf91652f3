(* Tests for the memory-device simulator: device parameters, the
   bandwidth model, the LLC (incl. prefetching and dirty write-backs) and
   the composed memory system (pipe ceiling, mix tracking, traces). *)

module A = Memsim.Access

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Device                                                              *)

let test_device_asymmetry () =
  let d = Memsim.Device.optane in
  check_bool "NVM read bw >> write bw" true
    (d.Memsim.Device.bw_read_seq > 2.0 *. d.Memsim.Device.bw_write_seq);
  check_bool "NVM random read slower than sequential" true
    (d.Memsim.Device.bw_read_random < d.Memsim.Device.bw_read_seq);
  check_bool "NVM latency above DRAM" true
    (d.Memsim.Device.read_latency_random_ns
    > Memsim.Device.dram.Memsim.Device.read_latency_random_ns);
  check_bool "nt beats cached sequential write" true
    (d.Memsim.Device.bw_nt_write > d.Memsim.Device.bw_write_seq)

let test_device_accessors () =
  let d = Memsim.Device.optane in
  check_float "read/seq cap" d.Memsim.Device.bw_read_seq
    (Memsim.Device.device_bw d A.Read A.Sequential);
  check_float "nt cap ignores pattern" d.Memsim.Device.bw_nt_write
    (Memsim.Device.device_bw d A.Nt_write A.Random);
  check_float "write latency for writes" d.Memsim.Device.write_latency_ns
    (Memsim.Device.latency_ns d A.Write A.Sequential)

(* ------------------------------------------------------------------ *)
(* Bandwidth model                                                     *)

let test_mix_penalty_shape () =
  let d = Memsim.Device.optane in
  let p w = Memsim.Bandwidth.mix_penalty d ~write_frac:w in
  check_float "pure reads unpenalized" 1.0 (p 0.0);
  check_float "pure writes unpenalized" 1.0 (p 1.0);
  check_bool "mixed is penalized" true (p 0.5 < 0.8);
  check_bool "small write share already hurts (saturating bowl)" true
    (p 0.10 < 0.85);
  check_bool "dram suffers less" true
    (Memsim.Bandwidth.mix_penalty Memsim.Device.dram ~write_frac:0.5 > p 0.5)

let test_nt_bypasses_penalty () =
  let d = Memsim.Device.optane in
  let nt_mixed =
    Memsim.Bandwidth.device_cap d A.Nt_write A.Sequential ~write_frac:0.5
  in
  check_bool "nt keeps most of its bandwidth in a mix" true
    (nt_mixed > 0.75 *. d.Memsim.Device.bw_nt_write);
  check_float "nt unpenalized when pure" d.Memsim.Device.bw_nt_write
    (Memsim.Bandwidth.device_cap d A.Nt_write A.Sequential ~write_frac:1.0);
  check_bool "cached writes penalized harder" true
    (Memsim.Bandwidth.device_cap d A.Write A.Sequential ~write_frac:0.5
     /. d.Memsim.Device.bw_write_seq
    < nt_mixed /. d.Memsim.Device.bw_nt_write)

let test_effective_gbps_bounds () =
  let d = Memsim.Device.optane in
  let e = Memsim.Bandwidth.effective_gbps d A.Read A.Random ~write_frac:0.0 in
  check_bool "never above solo" true
    (e <= d.Memsim.Device.thread_bw_read_random +. 1e-9);
  check_bool "positive" true (e > 0.0)

let test_total_cap_harmonic () =
  let d = Memsim.Device.optane in
  let pure_read =
    Memsim.Bandwidth.total_cap d ~write_frac:0.0 ~shares:(1.0, 0.0, 0.0, 0.0)
  in
  check_float "pure random reads = random read cap"
    d.Memsim.Device.bw_read_random pure_read;
  let mixed =
    Memsim.Bandwidth.total_cap d ~write_frac:0.5 ~shares:(0.5, 0.0, 0.5, 0.0)
  in
  check_bool "mix below both pure caps" true
    (mixed < d.Memsim.Device.bw_read_random
    && mixed < d.Memsim.Device.bw_read_seq)

let test_transfer_ns () =
  check_float "1GB/s = 1 byte per ns" 64.0
    (Memsim.Bandwidth.transfer_ns ~bytes:64 ~gbps:1.0)

(* The tie-exact helpers are [Float.min] / [Float.max] bit for bit.
   Operands come from both zeros, NaNs of both signs and two payloads,
   the infinities, subnormals, a few repeated values (so ties are
   common) and arbitrary floats. *)
let prop_tie_exact_min_max =
  let bits = Int64.bits_of_float in
  let operand =
    QCheck2.Gen.(
      frequency
        [
          ( 4,
            oneofl
              [
                0.0;
                -0.0;
                Float.nan;
                -.Float.nan;
                Int64.float_of_bits 0x7FF0_0000_0000_0001L;
                Int64.float_of_bits 0xFFF4_0000_0000_0000L;
                Float.infinity;
                Float.neg_infinity;
                1.0;
                -1.0;
              ] );
          ( 2,
            map2
              (fun m neg ->
                let x = Int64.float_of_bits (Int64.of_int m) in
                if neg then -.x else x)
              (int_range 1 ((1 lsl 52) - 1))
              bool );
          (3, float);
        ])
  in
  QCheck2.Test.make ~name:"tie-exact min and max equal the stdlib" ~count:2000
    ~print:(fun (x, y) -> Printf.sprintf "x=%h y=%h" x y)
    QCheck2.Gen.(pair operand operand)
    (fun (x, y) ->
      bits (Memsim.Bandwidth.fmin x y) = bits (Float.min x y)
      && bits (Memsim.Bandwidth.fmax x y) = bits (Float.max x y)
      && bits (Memsim.Bandwidth.fmin x x) = bits (Float.min x x)
      && bits (Memsim.Bandwidth.fmax x x) = bits (Float.max x x))

(* ------------------------------------------------------------------ *)
(* LLC                                                                 *)

(* A one-line demand access; evictions land in the write-back buffer. *)
let llc_access ?(write = false) ?(seq = false) ?(nvm = true) llc addr =
  Memsim.Llc.access_run llc addr ~lines:1 ~write ~seq ~nvm

let test_llc_hit_after_miss () =
  let llc = Memsim.Llc.create ~capacity_bytes:(64 * 1024) ~ways:8 in
  let o1 = llc_access llc 4096 in
  Alcotest.(check bool) "first access misses" true (o1 = Memsim.Llc.Miss);
  let o2 = llc_access llc 4100 in
  Alcotest.(check bool) "same line hits" true (o2 = Memsim.Llc.Hit)

let test_llc_prefetch () =
  let llc = Memsim.Llc.create ~capacity_bytes:(64 * 1024) ~ways:8 in
  check_bool "prefetch fetched" true (Memsim.Llc.prefetch_q llc 8192 ~nvm:true);
  check_bool "prefetched hit" true
    (llc_access llc 8192 = Memsim.Llc.Prefetched_hit);
  check_bool "second access is a plain hit" true
    (llc_access llc 8192 = Memsim.Llc.Hit);
  check_bool "prefetch of resident line fetches nothing" false
    (Memsim.Llc.prefetch_q llc 8192 ~nvm:true)

let test_llc_dirty_writeback () =
  (* tiny cache: 2 ways x 2 sets *)
  let llc = Memsim.Llc.create ~capacity_bytes:(4 * 64) ~ways:2 in
  let wbs = ref 0 and nvm_wbs = ref 0 in
  for i = 0 to 63 do
    ignore (llc_access ~write:true ~nvm:(i mod 2 = 0) llc (i * 64));
    for w = 0 to Memsim.Llc.run_wb_count llc - 1 do
      incr wbs;
      if Memsim.Llc.run_wb_nvm llc w then incr nvm_wbs
    done
  done;
  check_bool "write-backs happened" true (!wbs > 0);
  check_bool "some NVM write-backs" true (!nvm_wbs > 0);
  Alcotest.(check int) "counter matches" !wbs (Memsim.Llc.writebacks llc)

let test_llc_clean_eviction_no_writeback () =
  let llc = Memsim.Llc.create ~capacity_bytes:(4 * 64) ~ways:2 in
  for i = 0 to 63 do
    ignore (llc_access llc (i * 64));
    Alcotest.(check int) "clean lines never write back" 0
      (Memsim.Llc.run_wb_count llc)
  done

let test_llc_seq_flag_propagates () =
  let llc = Memsim.Llc.create ~capacity_bytes:(4 * 64) ~ways:2 in
  let seen_seq = ref false in
  for i = 0 to 63 do
    ignore (llc_access ~write:true ~seq:true llc (i * 64));
    for w = 0 to Memsim.Llc.run_wb_count llc - 1 do
      if Memsim.Llc.run_wb_seq llc w then seen_seq := true
    done
  done;
  check_bool "sequentially-dirtied lines drain as sequential" true !seen_seq

let test_llc_capacity_rounding () =
  let llc = Memsim.Llc.create ~capacity_bytes:100_000 ~ways:11 in
  let cap = Memsim.Llc.capacity_bytes llc in
  check_bool "capacity near requested (power-of-two sets)" true
    (cap > 30_000 && cap <= 100_000)

let test_llc_clear () =
  let llc = Memsim.Llc.create ~capacity_bytes:(64 * 1024) ~ways:8 in
  ignore (llc_access ~write:true llc 0);
  Memsim.Llc.reset llc;
  let o = llc_access llc 0 in
  check_bool "reset: miss again, no stale dirty write-back" true
    (o = Memsim.Llc.Miss && Memsim.Llc.run_wb_count llc = 0)

(* The per-way flags are bits of a native int, so a set holds at most 63
   ways.  A 63-way set keeps every dirty line; wider caches are refused
   rather than silently dropping write-backs. *)
let test_llc_way_bound () =
  let rejects ways =
    match Memsim.Llc.create ~capacity_bytes:(64 * 64) ~ways with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "0 ways rejected" true (rejects 0);
  check_bool "64 ways rejected" true (rejects 64);
  let llc = Memsim.Llc.create ~capacity_bytes:(63 * 64) ~ways:63 in
  Alcotest.(check int) "one set" (63 * 64) (Memsim.Llc.capacity_bytes llc);
  for i = 0 to 62 do
    ignore (llc_access ~write:true llc (i * 64))
  done;
  let dirty = ref 0 in
  for i = 0 to 62 do
    if Memsim.Llc.line_dirty llc (i * 64) then incr dirty
  done;
  Alcotest.(check int) "63/63 lines dirty" 63 !dirty;
  for i = 63 to 125 do
    ignore (llc_access llc (i * 64))
  done;
  Alcotest.(check int) "every dirty line written back" 63
    (Memsim.Llc.writebacks llc)

let test_llc_capacity_behaviour () =
  let llc = Memsim.Llc.create ~capacity_bytes:(16 * 1024) ~ways:8 in
  for _round = 1 to 3 do
    for i = 0 to 63 do
      ignore (llc_access llc (i * 64))
    done
  done;
  check_bool "small working set mostly hits" true
    (Memsim.Llc.hits llc >= 2 * 64)

(* The LLC's state lives in a constant number of flat arrays: creating a
   64 MiB cache (65,536 sets) must not allocate small per-set blocks in
   the minor heap.  A per-set record-plus-arrays layout costs about 2.4 M
   minor words here. *)
let test_llc_create_allocation () =
  let before = Gc.minor_words () in
  let llc = Memsim.Llc.create ~capacity_bytes:(64 lsl 20) ~ways:11 in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity llc);
  check_bool
    (Printf.sprintf "create allocates < 1000 minor words (got %.0f)" words)
    true (words < 1000.0)

(* Reference model for the property below: each set is a plain list of
   resident lines, most recently used first.  Fills take a free way while
   the set has one, otherwise evict the list's last entry; a prefetch of a
   resident line re-marks it without reordering. *)
type ref_line = {
  rl_line : int;
  mutable rl_dirty : bool;
  mutable rl_seq : bool;
  rl_nvm : bool;
  mutable rl_pf : bool;
}

type ref_llc = {
  r_ways : int;
  r_sets : ref_line list array;
  mutable r_hits : int;
  mutable r_misses : int;
  mutable r_pf_hits : int;
  mutable r_pf_issued : int;
  mutable r_wbs : int;
}

let ref_create ~nsets ~ways =
  {
    r_ways = ways;
    r_sets = Array.make nsets [];
    r_hits = 0;
    r_misses = 0;
    r_pf_hits = 0;
    r_pf_issued = 0;
    r_wbs = 0;
  }

(* The model shares only the documented set-index hash with [Llc]. *)
let ref_set r line =
  line * 0x9E3779B1 land max_int land (Array.length r.r_sets - 1)

(* Insert [entry] as MRU; returns the dirty eviction as (nvm, seq). *)
let ref_install r s entry =
  let lines = r.r_sets.(s) in
  let kept, evicted =
    if List.length lines < r.r_ways then (lines, None)
    else
      let rev = List.rev lines in
      (List.rev (List.tl rev), Some (List.hd rev))
  in
  r.r_sets.(s) <- entry :: kept;
  match evicted with
  | Some e when e.rl_dirty ->
      r.r_wbs <- r.r_wbs + 1;
      Some (e.rl_nvm, e.rl_seq)
  | _ -> None

let ref_access r line ~write ~seq ~nvm =
  let s = ref_set r line in
  match List.find_opt (fun e -> e.rl_line = line) r.r_sets.(s) with
  | Some e ->
      r.r_sets.(s) <- e :: List.filter (fun x -> x != e) r.r_sets.(s);
      if write then begin
        e.rl_dirty <- true;
        if seq then e.rl_seq <- true
      end;
      if e.rl_pf then begin
        e.rl_pf <- false;
        r.r_pf_hits <- r.r_pf_hits + 1;
        (Memsim.Llc.Prefetched_hit, None)
      end
      else begin
        r.r_hits <- r.r_hits + 1;
        (Memsim.Llc.Hit, None)
      end
  | None ->
      r.r_misses <- r.r_misses + 1;
      let entry =
        {
          rl_line = line;
          rl_dirty = write;
          rl_seq = write && seq;
          rl_nvm = nvm;
          rl_pf = false;
        }
      in
      (Memsim.Llc.Miss, ref_install r s entry)

let ref_prefetch r line ~nvm =
  r.r_pf_issued <- r.r_pf_issued + 1;
  let s = ref_set r line in
  match List.find_opt (fun e -> e.rl_line = line) r.r_sets.(s) with
  | Some e ->
      e.rl_pf <- true;
      (false, None)
  | None ->
      let entry =
        { rl_line = line; rl_dirty = false; rl_seq = false; rl_nvm = nvm;
          rl_pf = true }
      in
      (true, ref_install r s entry)

let ref_line_dirty r line =
  List.exists (fun e -> e.rl_line = line && e.rl_dirty) r.r_sets.(ref_set r line)

type llc_op =
  | Run of { line : int; lines : int; write : bool; seq : bool; nvm : bool }
  | Prefetch of { line : int; nvm : bool }
  | Dirty of int
  | Reset

let show_llc_op = function
  | Run { line; lines; write; seq; nvm } ->
      Printf.sprintf "run(%d,%d,w=%b,s=%b,n=%b)" line lines write seq nvm
  | Prefetch { line; nvm } -> Printf.sprintf "prefetch(%d,n=%b)" line nvm
  | Dirty line -> Printf.sprintf "dirty(%d)" line
  | Reset -> "reset"

let gen_llc_op ~span =
  let open QCheck2.Gen in
  let line = int_range 0 span in
  frequency
    [
      ( 12,
        map
          (fun (line, lines, (write, seq, nvm)) ->
            Run { line; lines; write; seq; nvm })
          (triple line (int_range 1 8) (triple bool bool bool)) );
      (3, map2 (fun line nvm -> Prefetch { line; nvm }) line bool);
      (3, map (fun l -> Dirty l) line);
      (1, pure Reset);
    ]

(* Every legal associativity, weighted toward the shapes that stress the
   recency list: 1 way (head = tail), 2, the default 11, 16, and 63 (six
   bits per way index, nine fingerprint words). *)
let gen_ways =
  QCheck2.Gen.(
    frequency [ (1, oneofl [ 1; 2; 11; 16; 63 ]); (1, int_range 1 63) ])

let prop_llc_matches_reference =
  QCheck2.Test.make ~name:"llc agrees with a per-set MRU-list model" ~count:300
    ~print:(fun (ways, nsets, ops) ->
      Printf.sprintf "ways=%d nsets=%d [%s]" ways nsets
        (String.concat "; " (List.map show_llc_op ops)))
    QCheck2.Gen.(
      gen_ways >>= fun ways ->
      int_range 0 3 >>= fun k ->
      let nsets = 1 lsl k in
      (* about four cache capacities' worth of distinct lines *)
      let span = 4 * ways * nsets in
      map
        (fun ops -> (ways, nsets, ops))
        (list_size (int_range 1 300) (gen_llc_op ~span)))
    (fun (ways, nsets, ops) ->
      let llc = Memsim.Llc.create ~capacity_bytes:(nsets * ways * 64) ~ways in
      let r = ref_create ~nsets ~ways in
      let run_wbs () =
        List.init (Memsim.Llc.run_wb_count llc) (fun i ->
            (Memsim.Llc.run_wb_nvm llc i, Memsim.Llc.run_wb_seq llc i))
      in
      let step op =
        match op with
        | Run { line; lines; write; seq; nvm } ->
            let first =
              Memsim.Llc.access_run llc ((line * 64) + 17) ~lines ~write ~seq
                ~nvm
            in
            let outcomes, wbs =
              List.split
                (List.init lines (fun i ->
                     ref_access r (line + i) ~write ~seq ~nvm))
            in
            first = List.hd outcomes && run_wbs () = List.filter_map Fun.id wbs
        | Prefetch { line; nvm } ->
            let fetched = Memsim.Llc.prefetch_q llc (line * 64) ~nvm in
            let fetched', wb = ref_prefetch r line ~nvm in
            fetched = fetched' && run_wbs () = Option.to_list wb
        | Dirty line ->
            Memsim.Llc.line_dirty llc ((line * 64) + 63) = ref_line_dirty r line
        | Reset ->
            Memsim.Llc.reset llc;
            Array.fill r.r_sets 0 nsets [];
            r.r_hits <- 0;
            r.r_misses <- 0;
            r.r_pf_hits <- 0;
            r.r_pf_issued <- 0;
            r.r_wbs <- 0;
            run_wbs () = []
      in
      Memsim.Llc.capacity_bytes llc = nsets * ways * 64
      && List.for_all
           (fun op ->
             step op
             && Memsim.Llc.hits llc = r.r_hits
             && Memsim.Llc.misses llc = r.r_misses
             && Memsim.Llc.prefetch_hits llc = r.r_pf_hits
             && Memsim.Llc.prefetch_issued llc = r.r_pf_issued
             && Memsim.Llc.writebacks llc = r.r_wbs)
           ops)

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

let mk_memory ?(trace = false) () =
  Memsim.Memory.create
    { Memsim.Memory.default_config with trace_enabled = trace }

(* One charge through the single access path; returns its duration. *)
let access ?force_device m ~now_ns ~addr ~space ~kind ~pattern bytes =
  Memsim.Memory.access_run_into ?force_device m ~now_ns ~addr ~space ~kind
    ~pattern ~bytes;
  Memsim.Memory.last_duration m

let test_memory_duration_positive () =
  let m = mk_memory () in
  let d =
    access m ~now_ns:0.0 ~addr:4096
      ~space:A.Nvm ~kind:A.Read ~pattern:A.Random 64
  in
  check_bool "positive duration" true (d > 0.0);
  check_bool "at least the miss latency" true
    (d >= Memsim.Device.optane.Memsim.Device.read_latency_random_ns)

let test_memory_hit_cheaper () =
  let m = mk_memory () in
  let once () =
    access m ~now_ns:0.0 ~addr:4096
      ~space:A.Nvm ~kind:A.Read ~pattern:A.Random 64
  in
  let miss = once () in
  let hit = once () in
  check_bool "LLC hit is much cheaper than a miss" true (hit < miss /. 3.0)

let test_memory_prefetch_discount () =
  let m = mk_memory () in
  ignore (Memsim.Memory.prefetch m ~now_ns:0.0 ~addr:8192 A.Nvm);
  let d =
    access m ~now_ns:0.0 ~addr:8192
      ~space:A.Nvm ~kind:A.Read ~pattern:A.Random 64
  in
  check_bool "prefetched access cheaper than a full miss" true
    (d < Memsim.Device.optane.Memsim.Device.read_latency_random_ns)

let test_memory_force_device () =
  let m = mk_memory () in
  (* warm the line so a normal write would hit *)
  ignore
    (access m ~now_ns:0.0 ~addr:4096
       ~space:A.Nvm ~kind:A.Read ~pattern:A.Random 64);
  let cached =
    access m ~now_ns:100.0 ~addr:4096
      ~space:A.Nvm ~kind:A.Write ~pattern:A.Random 8
  in
  let forced =
    access ~force_device:true m ~now_ns:200.0 ~addr:4096
      ~space:A.Nvm ~kind:A.Write ~pattern:A.Random 8
  in
  check_bool "forced atomic write dearer than cached write" true
    (forced > cached)

let test_memory_pipe_ceiling () =
  let m = mk_memory () in
  let bytes = 4096 in
  let n = 2_000 in
  let finish = ref 0.0 in
  for i = 0 to n - 1 do
    let d =
      access m ~now_ns:0.0
        ~addr:(Simheap.Layout.heap_base + (i * bytes))
        ~space:A.Nvm ~kind:A.Read ~pattern:A.Sequential bytes
    in
    finish := Float.max !finish d
  done;
  let gbps = float_of_int (n * bytes) /. !finish in
  check_bool
    (Printf.sprintf "aggregate read bw capped near device limit (got %.1f)"
       gbps)
    true
    (gbps < Memsim.Device.optane.Memsim.Device.bw_read_seq *. 1.2)

let test_memory_write_frac_tracking () =
  let m = mk_memory () in
  for i = 0 to 9 do
    ignore
      (access m ~now_ns:(float_of_int i) ~addr:(i * 64)
         ~space:A.Nvm ~kind:A.Write ~pattern:A.Random 64)
  done;
  check_bool "write-only traffic -> write_frac near 1" true
    (Memsim.Memory.write_frac m A.Nvm ~now_ns:10.0 > 0.8);
  check_float "dram untouched" 0.0
    (Memsim.Memory.write_frac m A.Dram ~now_ns:10.0)

let test_memory_mixed_slower_than_pure () =
  let pure = mk_memory () in
  let mixed = mk_memory () in
  let read m i now =
    access m ~now_ns:now
      ~addr:(Simheap.Layout.heap_base + (i * 8192))
      ~space:A.Nvm ~kind:A.Read ~pattern:A.Sequential 8192
  in
  let write m i now =
    access m ~now_ns:now
      ~addr:(Simheap.Layout.dram_scratch_base + (i * 8192))
      ~space:A.Nvm ~kind:A.Write ~pattern:A.Random 8192
  in
  let t_pure = ref 0.0 in
  for i = 0 to 199 do
    t_pure := !t_pure +. read pure i !t_pure
  done;
  let t_mixed = ref 0.0 and read_time = ref 0.0 in
  for i = 0 to 199 do
    let d = read mixed i !t_mixed in
    read_time := !read_time +. d;
    t_mixed := !t_mixed +. d;
    t_mixed := !t_mixed +. write mixed i !t_mixed
  done;
  check_bool "reads slower in a mixed stream" true
    (!read_time > !t_pure *. 1.2)

let test_memory_nt_write_efficiency () =
  let cached = mk_memory () and nt = mk_memory () in
  let stream m kind =
    let t = ref 0.0 in
    for i = 0 to 99 do
      t :=
        !t
        +. access m ~now_ns:!t
             ~addr:(Simheap.Layout.heap_base + (i * 16384))
             ~space:A.Nvm ~kind ~pattern:A.Sequential 16384
    done;
    !t
  in
  let t_cached = stream cached A.Write in
  let t_nt = stream nt A.Nt_write in
  check_bool "nt streaming faster than cached stores" true (t_nt < t_cached)

let test_memory_snapshot_diff () =
  let m = mk_memory () in
  let before = Memsim.Memory.snapshot m in
  ignore
    (access m ~now_ns:0.0 ~addr:0
       ~space:A.Nvm ~kind:A.Read ~pattern:A.Sequential 1000);
  ignore
    (access m ~now_ns:10.0 ~addr:64
       ~space:A.Dram ~kind:A.Write ~pattern:A.Sequential 500);
  let diff = Memsim.Memory.diff ~before ~after:(Memsim.Memory.snapshot m) in
  check_float "nvm reads counted" 1000.0 diff.Memsim.Memory.nvm_read_bytes;
  check_float "dram writes counted" 500.0 diff.Memsim.Memory.dram_write_bytes;
  check_float "no spurious nvm writes" 0.0 diff.Memsim.Memory.nvm_write_bytes

let test_memory_traces () =
  let m = mk_memory ~trace:true () in
  ignore
    (access m ~now_ns:0.0 ~addr:0
       ~space:A.Nvm ~kind:A.Read ~pattern:A.Sequential 4096);
  let series = Memsim.Memory.read_trace m A.Nvm in
  Alcotest.(check (float 1.0)) "trace mass = bytes" 4096.0
    (Simstats.Timeseries.total series)

let test_memory_record_background () =
  let m = mk_memory ~trace:true () in
  Memsim.Memory.record_background m ~from_ns:0.0 ~until_ns:1e6 ~space:A.Nvm
    ~read_bytes:1e6 ~write_bytes:5e5;
  let after = Memsim.Memory.snapshot m in
  check_float "background reads" 1e6 after.Memsim.Memory.nvm_read_bytes;
  check_float "background writes" 5e5 after.Memsim.Memory.nvm_write_bytes;
  check_bool "write_frac reflects background mix" true
    (let w = Memsim.Memory.write_frac m A.Nvm ~now_ns:1e6 in
     w > 0.2 && w < 0.5)

(* The float-identity arguments behind the batched run/drain path
   (Memory.access_run_into), as executable properties:

   1. the traffic-mix EMA is affine in its contributions — decaying to a
      timestamp then adding k integer-valued parts is bit-for-bit the
      same as adding their sum once, so every downstream read
      (write_frac, consumed bandwidth, utilization) agrees exactly;

   2. the continuous recorder's per-cause totals sum exactly (again
      bitwise, not approximately) to the memory system's aggregate byte
      counters, even though the run path batches its write-back
      attribution into per-space deltas.

   Both lean on the same fact: all contributions are integer-valued
   floats far below 2^53, so float addition of any split is exact. *)
let prop_batched_mix_equals_fold =
  QCheck2.Test.make
    ~name:"batched mix update = per-part fold (bit-for-bit)" ~count:100
    QCheck2.Gen.(
      pair (int_range 1 64)
        (list_size (int_range 0 8) (pair (int_range 1 1000) (int_range 1 64))))
    (fun (k, prior) ->
      let bits = Int64.bits_of_float in
      let m1 = mk_memory () and m2 = mk_memory () in
      (* Identical arbitrary prior traffic, so the EMA state the batch
         lands on is nontrivial. *)
      let t = ref 0.0 in
      List.iter
        (fun (dt, lines) ->
          t := !t +. float_of_int dt;
          List.iter
            (fun m ->
              Memsim.Memory.record_background m ~from_ns:!t ~until_ns:!t
                ~space:A.Nvm
                ~read_bytes:(float_of_int (lines * 64))
                ~write_bytes:0.0)
            [ m1; m2 ])
        prior;
      let now = !t +. 10.0 in
      (* m1: one batched contribution of k lines.  m2: k per-line
         contributions at the same instant (decay is a no-op after the
         first, dt = 0). *)
      Memsim.Memory.record_background m1 ~from_ns:now ~until_ns:now
        ~space:A.Nvm ~read_bytes:0.0
        ~write_bytes:(float_of_int (k * 64));
      for _ = 1 to k do
        Memsim.Memory.record_background m2 ~from_ns:now ~until_ns:now
          ~space:A.Nvm ~read_bytes:0.0 ~write_bytes:64.0
      done;
      let later = now +. 123.0 in
      bits (Memsim.Memory.write_frac m1 A.Nvm ~now_ns:later)
      = bits (Memsim.Memory.write_frac m2 A.Nvm ~now_ns:later)
      && bits (Memsim.Memory.consumed_gbps m1 A.Nvm ~now_ns:later)
         = bits (Memsim.Memory.consumed_gbps m2 A.Nvm ~now_ns:later)
      && bits (Memsim.Memory.utilization m1 A.Nvm ~now_ns:later)
         = bits (Memsim.Memory.utilization m2 A.Nvm ~now_ns:later))

let prop_recorder_cause_totals_exact =
  QCheck2.Test.make
    ~name:"recorder per-cause totals sum bitwise to memory totals" ~count:50
    QCheck2.Gen.(
      list_size (int_range 1 80) (pair (int_range 0 10_000) (int_range 0 10_000)))
    (fun ops ->
      let r = Nvmtrace.Recorder.create () in
      Nvmtrace.Hooks.set_recorder (Some r);
      Fun.protect
        ~finally:(fun () -> Nvmtrace.Hooks.set_recorder None)
        (fun () ->
          let m = mk_memory () in
          let before = Memsim.Memory.snapshot m in
          let causes = Nvmtrace.Recorder.all_causes in
          let now = ref 0.0 in
          List.iter
            (fun (a, b) ->
              let space = if a land 1 = 0 then A.Dram else A.Nvm in
              let kind =
                match a land 6 with
                | 0 | 2 -> A.Read
                | 4 -> A.Write
                | _ -> A.Nt_write
              in
              let pattern = if a land 8 = 0 then A.Random else A.Sequential in
              let cause = List.nth causes (a mod List.length causes) in
              let bytes = 8 + (b mod 600) in
              let addr = b * 97 mod 50_000 * 8 in
              now := !now +. float_of_int (1 + (a mod 50));
              Memsim.Memory.set_cause m cause;
              Memsim.Memory.access_run_into m ~now_ns:!now ~addr ~space ~kind
                ~pattern ~bytes)
            ops;
          let d =
            Memsim.Memory.diff ~before ~after:(Memsim.Memory.snapshot m)
          in
          let bits = Int64.bits_of_float in
          let sum ~nvm ~write =
            List.fold_left
              (fun acc c -> acc +. Nvmtrace.Recorder.total r ~nvm ~write c)
              0.0 causes
          in
          bits (sum ~nvm:false ~write:false) = bits d.Memsim.Memory.dram_read_bytes
          && bits (sum ~nvm:false ~write:true)
             = bits d.Memsim.Memory.dram_write_bytes
          && bits (sum ~nvm:true ~write:false)
             = bits d.Memsim.Memory.nvm_read_bytes
          && bits (sum ~nvm:true ~write:true)
             = bits d.Memsim.Memory.nvm_write_bytes))

(* A reset memory is a fresh memory.  Memory A runs one to three random
   prefixes, each followed by a reset; memory B comes straight from
   [create].  Both then run the
   same random suffix, and after every step they must agree exactly on
   everything a caller can read: the last duration (bitwise), byte
   totals, pipe and per-class service time, LLC counters, the traces,
   the attribution cause, durability tracking and its undurable lines,
   and, with the recorder installed, every per-cause total.  The LLC has
   1-4 sets of 1-8, 11 or 63 ways, so evictions and dirty write-backs
   happen, and
   trace buckets are 500 ns wide, so charges spread over several. *)
type mem_op =
  | M_access of {
      dt : int;
      line : int;
      off : int;
      lines : int;
      space : A.space;
      kind : A.kind;
      pattern : A.pattern;
      force : bool;
    }
  | M_prefetch of { dt : int; line : int; space : A.space }
  | M_background of {
      dt : int;
      len : int;
      space : A.space;
      read : float;
      write : float;
    }
  | M_cause of int
  | M_arm
  | M_undurable of { line : int; lines : int }

let show_space = function A.Dram -> "dram" | A.Nvm -> "nvm"

let show_mem_op = function
  | M_access { dt; line; off; lines; space; kind; pattern; force } ->
      Printf.sprintf "access(+%d,%d+%d,%d,%s,%s,%s%s)" dt line off lines
        (show_space space)
        (match kind with A.Read -> "r" | A.Write -> "w" | A.Nt_write -> "nt")
        (match pattern with A.Random -> "rand" | A.Sequential -> "seq")
        (if force then ",force" else "")
  | M_prefetch { dt; line; space } ->
      Printf.sprintf "prefetch(+%d,%d,%s)" dt line (show_space space)
  | M_background { dt; len; space; read; write } ->
      Printf.sprintf "background(+%d,%d,%s,%g,%g)" dt len (show_space space)
        read write
  | M_cause c -> Printf.sprintf "cause(%d)" c
  | M_arm -> "arm"
  | M_undurable { line; lines } -> Printf.sprintf "undurable(%d,%d)" line lines

let gen_mem_op ~span =
  let open QCheck2.Gen in
  (* Mostly back-to-back charges and some long runs, so the device pipes
     build a backlog and queueing waits show in durations and pipe_stats. *)
  let dt =
    frequency [ (20, pure 0); (2, int_range 1 100); (1, int_range 0 3000) ]
  and line = int_range 0 span
  and lines =
    frequency [ (6, int_range 1 8); (2, int_range 9 64); (1, int_range 65 512) ]
  in
  let space = map (fun b -> if b then A.Nvm else A.Dram) bool in
  frequency
    [
      ( 12,
        map
          (fun ((dt, line, off, lines), (space, kind, pattern, force)) ->
            M_access { dt; line; off; lines; space; kind; pattern; force })
          (pair
             (quad dt line (int_range 0 63) lines)
             (quad space
                (oneofl [ A.Read; A.Write; A.Nt_write ])
                (oneofl [ A.Random; A.Sequential ])
                (frequency [ (4, pure false); (1, pure true) ]))) );
      ( 3,
        map3 (fun dt line space -> M_prefetch { dt; line; space }) dt line space
      );
      ( 2,
        map
          (fun (dt, len, space, (r, w)) ->
            M_background
              {
                dt;
                len;
                space;
                read = float_of_int r *. 1.5;
                write = float_of_int w *. 0.75;
              })
          (quad dt (int_range 0 5000) space
             (pair (int_range 0 4096) (int_range 0 4096))) );
      (1, map (fun c -> M_cause c) (int_range 0 100));
      (1, pure M_arm);
      ( 2,
        map2 (fun line lines -> M_undurable { line; lines }) line
          (int_range 1 16) );
    ]

(* Run one op at the clock [now] with [r] installed as the recorder;
   returns the undurable lines a query reported ([] for every other
   op). *)
let step_mem_op m r now op =
  Nvmtrace.Hooks.set_recorder r;
  match op with
  | M_access { dt; line; off; lines; space; kind; pattern; force } ->
      now := !now +. float_of_int dt;
      Memsim.Memory.access_run_into ~force_device:force m ~now_ns:!now
        ~addr:((line * 64) + off) ~space ~kind ~pattern
        ~bytes:((lines * 64) - off);
      []
  | M_prefetch { dt; line; space } ->
      now := !now +. float_of_int dt;
      ignore
        (Memsim.Memory.prefetch m ~now_ns:!now ~addr:(line * 64) space : float);
      []
  | M_background { dt; len; space; read; write } ->
      now := !now +. float_of_int dt;
      Memsim.Memory.record_background m ~from_ns:!now
        ~until_ns:(!now +. float_of_int len) ~space ~read_bytes:read
        ~write_bytes:write;
      []
  | M_cause c ->
      let causes = Nvmtrace.Recorder.all_causes in
      Memsim.Memory.set_cause m (List.nth causes (c mod List.length causes));
      []
  | M_arm ->
      Memsim.Memory.set_durability_tracking m true;
      []
  | M_undurable { line; lines } ->
      Memsim.Memory.nvm_undurable_in m ~base:(line * 64) ~bytes:(lines * 64)

let prop_reset_is_fresh =
  QCheck2.Test.make ~name:"a reset memory is a fresh memory" ~count:200
    ~print:(fun (ways, nsets, recorder, (prefixes, suffix)) ->
      let show ops = "[" ^ String.concat "; " (List.map show_mem_op ops) ^ "]" in
      Printf.sprintf "ways=%d nsets=%d recorder=%b prefixes=%s suffix=%s"
        ways nsets recorder
        (String.concat " reset " (List.map show prefixes))
        (show suffix))
    QCheck2.Gen.(
      frequency [ (4, int_range 1 8); (1, oneofl [ 11; 63 ]) ] >>= fun ways ->
      int_range 0 2 >>= fun k ->
      let nsets = 1 lsl k in
      let ops = list_size (int_range 0 60) (gen_mem_op ~span:(4 * ways * nsets)) in
      map
        (fun (recorder, prefix_suffix) -> (ways, nsets, recorder, prefix_suffix))
        (pair bool (pair (list_size (int_range 1 3) ops) ops)))
    (fun (ways, nsets, with_recorder, (prefixes, suffix)) ->
      let config =
        {
          Memsim.Memory.default_config with
          llc_capacity_bytes = nsets * ways * 64;
          llc_ways = ways;
          trace_enabled = true;
          trace_bucket_ns = 500.0;
        }
      in
      let causes = Nvmtrace.Recorder.all_causes in
      let recorder () =
        if with_recorder then Some (Nvmtrace.Recorder.create ()) else None
      in
      let step = step_mem_op in
      let bits = Int64.bits_of_float in
      let series ts =
        List.init (Simstats.Timeseries.length ts) (fun i ->
            bits (Simstats.Timeseries.get ts i))
      in
      let observe m r =
        let snap = Memsim.Memory.snapshot m and llc = Memsim.Memory.llc m in
        let per_space space =
          let service, wait = Memsim.Memory.pipe_stats m space in
          ( [ bits service; bits wait ]
            @ Array.to_list
                (Array.map bits (Memsim.Memory.service_by_class m space)),
            series (Memsim.Memory.read_trace m space),
            series (Memsim.Memory.write_trace m space) )
        in
        ( ( bits (Memsim.Memory.last_duration m),
            List.map bits
              [
                snap.Memsim.Memory.dram_read_bytes;
                snap.Memsim.Memory.dram_write_bytes;
                snap.Memsim.Memory.nvm_read_bytes;
                snap.Memsim.Memory.nvm_write_bytes;
              ],
            [
              Memsim.Llc.hits llc;
              Memsim.Llc.misses llc;
              Memsim.Llc.prefetch_hits llc;
              Memsim.Llc.prefetch_issued llc;
              Memsim.Llc.writebacks llc;
              Memsim.Llc.run_wb_count llc;
            ] ),
          (per_space A.Dram, per_space A.Nvm),
          ( Memsim.Memory.current_cause m,
            Memsim.Memory.durability_tracking m,
            match r with
            | None -> []
            | Some r ->
                List.concat_map
                  (fun c ->
                    List.map
                      (fun (nvm, write) ->
                        bits (Nvmtrace.Recorder.total r ~nvm ~write c))
                      [ (false, false); (false, true); (true, false); (true, true) ])
                  causes ) )
      in
      Fun.protect
        ~finally:(fun () -> Nvmtrace.Hooks.set_recorder None)
        (fun () ->
          let a = Memsim.Memory.create config in
          List.iter
            (fun prefix ->
              let now = ref 0.0 and r = recorder () in
              List.iter (fun op -> ignore (step a r now op : int list)) prefix;
              Memsim.Memory.reset a)
            prefixes;
          let b = Memsim.Memory.create config in
          let r_a = recorder () and r_b = recorder () in
          let now_a = ref 0.0 and now_b = ref 0.0 in
          observe a r_a = observe b r_b
          && List.for_all
               (fun op ->
                 let ua = step a r_a now_a op in
                 let ub = step b r_b now_b op in
                 ua = ub && observe a r_a = observe b r_b)
               suffix))

(* Three simulated threads take turns issuing [ops] against one memory,
   each on its own clock ([step_mem_op] advances it by the op's [dt], and
   an access also by its duration), so arrivals land behind the device
   pipes' last instant as they do between GC threads.  [f] sees every
   access's duration; the run returns the threads' clocks. *)
let run_threaded m r ops f =
  let clocks = Array.init 3 (fun _ -> ref 0.0) in
  List.iteri
    (fun i op ->
      let now = clocks.(i mod 3) in
      let undurable = step_mem_op m r now op in
      (match op with
      | M_access _ ->
          let d = Memsim.Memory.last_duration m in
          f op ~now:!now ~undurable d;
          now := !now +. d
      | _ -> f op ~now:!now ~undurable nan))
    ops

(* The memory model's float state, pinned by digest: a fixed-seed stream
   of [gen_mem_op] ops on a 2-way, 4-set LLC with the trace and the
   recorder on.  After every op the digest takes each duration's bits,
   both spaces' pipe stats and per-class service, the byte totals and
   the undurable lines; at the end, every trace and recorder bucket and
   total and the LLC counters.  Unlike "a reset memory is a fresh
   memory", which compares two memories running the same code, this
   fails when a change to the model reorders or repeats a float
   operation — a drain charging two same-space write-backs in swapped
   order, or decaying a mix twice.  The run must exercise what such a
   change would touch: write-back buffers holding both spaces' lines,
   write-backs drained at a clock behind an earlier charge, and forced
   device charges. *)
let float_state_digest = "4c19d5ec1dafa0da746461cafb0c88f5"

let test_memory_float_state_pinned () =
  let ways = 2 and nsets = 4 in
  let config =
    {
      Memsim.Memory.default_config with
      llc_capacity_bytes = nsets * ways * 64;
      llc_ways = ways;
      trace_enabled = true;
      trace_bucket_ns = 500.0;
    }
  in
  let ops =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 30 |]) ~n:3000
      (gen_mem_op ~span:(4 * ways * nsets))
  in
  let m = Memsim.Memory.create config in
  let r = Nvmtrace.Recorder.create ~window_ns:2000.0 () in
  let buf = Buffer.create 65536 in
  let add_float x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  let add_series ts =
    Buffer.add_int32_le buf (Int32.of_int (Simstats.Timeseries.length ts));
    for i = 0 to Simstats.Timeseries.length ts - 1 do
      add_float (Simstats.Timeseries.get ts i)
    done
  in
  let llc = Memsim.Memory.llc m in
  let mixed = ref 0 and skewed = ref 0 and forced = ref 0 in
  let latest = ref 0.0 in
  Fun.protect
    ~finally:(fun () -> Nvmtrace.Hooks.set_recorder None)
    (fun () ->
      run_threaded m (Some r) ops (fun op ~now ~undurable d ->
          (match op with
          | M_access { kind; force; _ } ->
              let n = Memsim.Llc.run_wb_count llc in
              let nvm = ref 0 in
              for i = 0 to n - 1 do
                if Memsim.Llc.run_wb_nvm llc i then incr nvm
              done;
              if !nvm > 0 && !nvm < n then incr mixed;
              if n > 0 && now < !latest then incr skewed;
              if force && kind <> A.Nt_write then incr forced;
              latest := Float.max !latest now
          | _ -> ());
          add_float d;
          List.iter
            (fun space ->
              let service, wait = Memsim.Memory.pipe_stats m space in
              add_float service;
              add_float wait;
              Array.iter add_float (Memsim.Memory.service_by_class m space))
            [ A.Dram; A.Nvm ];
          let snap = Memsim.Memory.snapshot m in
          add_float snap.Memsim.Memory.dram_read_bytes;
          add_float snap.Memsim.Memory.dram_write_bytes;
          add_float snap.Memsim.Memory.nvm_read_bytes;
          add_float snap.Memsim.Memory.nvm_write_bytes;
          List.iter (fun a -> Buffer.add_int32_le buf (Int32.of_int a)) undurable));
  List.iter
    (fun space ->
      add_series (Memsim.Memory.read_trace m space);
      add_series (Memsim.Memory.write_trace m space))
    [ A.Dram; A.Nvm ];
  List.iter
    (fun c ->
      List.iter
        (fun (nvm, write) ->
          add_float (Nvmtrace.Recorder.total r ~nvm ~write c);
          add_series (Nvmtrace.Recorder.series r ~nvm ~write c))
        [ (false, false); (false, true); (true, false); (true, true) ])
    Nvmtrace.Recorder.all_causes;
  List.iter
    (fun n -> Buffer.add_int32_le buf (Int32.of_int n))
    [
      Memsim.Llc.hits llc;
      Memsim.Llc.misses llc;
      Memsim.Llc.prefetch_hits llc;
      Memsim.Llc.prefetch_issued llc;
      Memsim.Llc.writebacks llc;
    ];
  let coverage what n =
    check_bool (Printf.sprintf "%s (%d)" what n) true (n >= 20)
  in
  coverage "write-back buffers mixing both spaces" !mixed;
  coverage "write-backs drained behind a later clock" !skewed;
  coverage "forced device charges" !forced;
  Alcotest.(check string)
    "float state digest" float_state_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Every access duration is finite and non-negative: the min-clock
   scheduler's heap orders threads by clock, and a NaN clock would make
   it disagree with the linear scan it replaced. *)
let prop_durations_finite =
  QCheck2.Test.make ~name:"durations are finite and non-negative" ~count:200
    ~print:(fun (ways, ops) ->
      Printf.sprintf "ways=%d [%s]" ways
        (String.concat "; " (List.map show_mem_op ops)))
    QCheck2.Gen.(
      pair (int_range 1 8)
        (list_size (int_range 0 120) (gen_mem_op ~span:64)))
    (fun (ways, ops) ->
      let m =
        Memsim.Memory.create
          {
            Memsim.Memory.default_config with
            llc_capacity_bytes = 4 * ways * 64;
            llc_ways = ways;
          }
      in
      let ok = ref true in
      run_threaded m None ops (fun op ~now:_ ~undurable:_ d ->
          match op with
          | M_access _ -> if not (Float.is_finite d && d >= 0.0) then ok := false
          | _ -> ());
      !ok)

(* Reusing a memory is only worth it if resetting costs next to nothing:
   after a 40-object fuzz run, [reset] must stay allocation-free (a few
   words of slack for the measurement itself). *)
let test_memory_reset_allocation () =
  let spec =
    Simcheck.Spec.generate (Simstats.Prng.create 42) ~max_objects:40
  in
  let inst = Simcheck.Spec.instantiate spec in
  let memory = mk_memory () in
  let all =
    List.find
      (fun v -> v.Simcheck.Fuzz.name = "g1-all")
      Simcheck.Fuzz.all_variants
  in
  let gc =
    Nvmgc.Young_gc.create ~heap:inst.Simcheck.Spec.heap ~memory
      (all.Simcheck.Fuzz.make ~threads:4)
  in
  ignore (Nvmgc.Young_gc.collect gc ~now_ns:0.0 : Nvmgc.Gc_stats.pause);
  check_bool "the run used the LLC" true
    (Memsim.Llc.misses (Memsim.Memory.llc memory) > 0);
  let before = Gc.minor_words () in
  Memsim.Memory.reset memory;
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "reset allocates < 64 minor words (got %.0f)" words)
    true (words < 64.0)

let prop_access_duration_monotone_in_size =
  QCheck2.Test.make ~name:"bigger sequential access never cheaper" ~count:50
    QCheck2.Gen.(int_range 64 100_000)
    (fun bytes ->
      let m = mk_memory () in
      let d1 =
        access m ~now_ns:0.0 ~addr:Simheap.Layout.heap_base
          ~space:A.Nvm ~kind:A.Nt_write ~pattern:A.Sequential bytes
      in
      let m2 = mk_memory () in
      let d2 =
        access m2 ~now_ns:0.0 ~addr:Simheap.Layout.heap_base
          ~space:A.Nvm ~kind:A.Nt_write ~pattern:A.Sequential (bytes * 2)
      in
      d2 >= d1)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "memsim"
    [
      ( "device",
        [
          Alcotest.test_case "asymmetry" `Quick test_device_asymmetry;
          Alcotest.test_case "accessors" `Quick test_device_accessors;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "mix penalty shape" `Quick test_mix_penalty_shape;
          Alcotest.test_case "nt bypasses penalty" `Quick test_nt_bypasses_penalty;
          Alcotest.test_case "effective bounds" `Quick test_effective_gbps_bounds;
          Alcotest.test_case "total cap harmonic" `Quick test_total_cap_harmonic;
          Alcotest.test_case "transfer ns" `Quick test_transfer_ns;
          QCheck_alcotest.to_alcotest prop_tie_exact_min_max;
        ] );
      ( "llc",
        [
          Alcotest.test_case "hit after miss" `Quick test_llc_hit_after_miss;
          Alcotest.test_case "prefetch" `Quick test_llc_prefetch;
          Alcotest.test_case "dirty writeback" `Quick test_llc_dirty_writeback;
          Alcotest.test_case "clean eviction silent" `Quick
            test_llc_clean_eviction_no_writeback;
          Alcotest.test_case "seq flag propagates" `Quick
            test_llc_seq_flag_propagates;
          Alcotest.test_case "capacity rounding" `Quick test_llc_capacity_rounding;
          Alcotest.test_case "clear" `Quick test_llc_clear;
          Alcotest.test_case "way bound" `Quick test_llc_way_bound;
          Alcotest.test_case "capacity behaviour" `Quick test_llc_capacity_behaviour;
          Alcotest.test_case "create allocation" `Quick
            test_llc_create_allocation;
          qc prop_llc_matches_reference;
        ] );
      ( "memory",
        [
          Alcotest.test_case "duration positive" `Quick test_memory_duration_positive;
          Alcotest.test_case "hit cheaper" `Quick test_memory_hit_cheaper;
          Alcotest.test_case "prefetch discount" `Quick test_memory_prefetch_discount;
          Alcotest.test_case "force device" `Quick test_memory_force_device;
          Alcotest.test_case "pipe ceiling" `Quick test_memory_pipe_ceiling;
          Alcotest.test_case "write frac tracking" `Quick
            test_memory_write_frac_tracking;
          Alcotest.test_case "mixed slower than pure" `Quick
            test_memory_mixed_slower_than_pure;
          Alcotest.test_case "nt write efficiency" `Quick
            test_memory_nt_write_efficiency;
          Alcotest.test_case "snapshot diff" `Quick test_memory_snapshot_diff;
          Alcotest.test_case "traces" `Quick test_memory_traces;
          Alcotest.test_case "record background" `Quick
            test_memory_record_background;
          Alcotest.test_case "reset allocation" `Quick
            test_memory_reset_allocation;
          qc prop_reset_is_fresh;
          Alcotest.test_case "float state pinned" `Quick
            test_memory_float_state_pinned;
          qc prop_durations_finite;
          qc prop_access_duration_monotone_in_size;
          qc prop_batched_mix_equals_fold;
          qc prop_recorder_cause_totals_exact;
        ] );
    ]
