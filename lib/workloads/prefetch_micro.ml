(** The software-prefetching micro-benchmark of paper §4.3.

    A large array lives on DRAM or NVM; the benchmark visits
    pre-generated random indices, reading and updating each element.
    Because the index sequence is known in advance, a variant issues
    software prefetches a fixed distance ahead.  The paper reports (40 M
    accesses): DRAM 1.513 s -> 0.958 s (1.58x) and NVM 4.171 s -> 1.369 s
    (3.05x) — prefetching pays much more atop NVM.

    The simulated run uses fewer accesses (scaled) and reports both the
    simulated time and the improvement ratios; ratios are the
    reproducible shape. *)

type result = {
  config_name : string;
  accesses : int;
  simulated_ms : float;
}

let element_bytes = 64
let update_bytes = 8
let compute_ns = 6.0
let prefetch_distance = 8

(* One random access; returns its simulated duration. *)
let access memory ~now_ns ~addr ~space ~kind ~bytes =
  Memsim.Memory.access_run_into memory ~now_ns ~addr ~space ~kind
    ~pattern:Memsim.Access.Random ~bytes;
  Memsim.Memory.last_duration memory

let run_one ~space ~prefetch ~accesses ~seed =
  let memory =
    Memsim.Memory.create
      { Memsim.Memory.default_config with trace_enabled = false }
  in
  let rng = Simstats.Prng.create seed in
  (* array sized far beyond the LLC so demand accesses miss *)
  let array_bytes = 64 * 1024 * 1024 in
  let base = Simheap.Layout.heap_base in
  let slots = array_bytes / element_bytes in
  let indices = Array.init accesses (fun _ -> Simstats.Prng.int rng slots) in
  let clock = ref 0.0 in
  for i = 0 to accesses - 1 do
    if prefetch && i + prefetch_distance < accesses then begin
      let ahead = base + (indices.(i + prefetch_distance) * element_bytes) in
      clock := !clock +. Memsim.Memory.prefetch memory ~now_ns:!clock ~addr:ahead space
    end;
    let addr = base + (indices.(i) * element_bytes) in
    clock :=
      !clock
      +. access memory ~now_ns:!clock ~addr ~space ~kind:Memsim.Access.Read
           ~bytes:element_bytes;
    clock :=
      !clock
      +. access memory ~now_ns:!clock ~addr ~space ~kind:Memsim.Access.Write
           ~bytes:update_bytes;
    clock := !clock +. compute_ns
  done;
  !clock /. 1e6

(** Run the four configurations of the paper's table.  [accesses] defaults
    to 400k (the paper's 40 M scaled by 100). *)
let run ?(accesses = 400_000) ?(seed = 7) () =
  let cases =
    [
      ("DRAM-noprefetch", Memsim.Access.Dram, false);
      ("DRAM-prefetch", Memsim.Access.Dram, true);
      ("NVM-noprefetch", Memsim.Access.Nvm, false);
      ("NVM-prefetch", Memsim.Access.Nvm, true);
    ]
  in
  List.map
    (fun (config_name, space, prefetch) ->
      { config_name; accesses; simulated_ms = run_one ~space ~prefetch ~accesses ~seed })
    cases

let improvement results ~base ~opt =
  let find name =
    match List.find_opt (fun r -> r.config_name = name) results with
    | Some r -> r.simulated_ms
    | None -> invalid_arg ("Prefetch_micro.improvement: " ^ name)
  in
  find base /. find opt
