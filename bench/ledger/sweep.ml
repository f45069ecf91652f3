(* Sweep cells: one application under one of Figure 5's setups, run either
   through the user's own entry point ([Experiments.Runner.execute]) or
   through the benchmark's span-instrumented copy of its loop. *)

module P = Workloads.App_profile
module R = Experiments.Runner

let setups = [ R.All_opts; R.Write_cache_only; R.Vanilla; R.Vanilla_dram; R.Young_gen_dram ]

(** The named applications in [Workloads.Apps.all] order — the row order
    [Experiments.Fig5_gc_time.compute] produces. *)
let apps names =
  List.filter (fun (a : P.t) -> List.mem a.P.name names) Workloads.Apps.all

(** Cells app-major, setup-minor: the order of the Figure 5 sweep. *)
let cells apps =
  List.concat_map (fun app -> List.map (fun setup -> (app, setup)) setups) apps

(** MD5 of the marshalled Figure 5 rows, exactly as bench/digest_sweep.ml
    computes it, from the cells' GC seconds in [cells] order. *)
let rows_digest apps gc_seconds =
  let gc = Array.of_list gc_seconds in
  let k = List.length setups in
  if Array.length gc <> k * List.length apps then
    invalid_arg "Sweep.rows_digest: one GC time per cell expected";
  let rows =
    List.mapi
      (fun i (app : P.t) ->
        let s j = gc.((i * k) + j) in
        {
          Experiments.Fig5_gc_time.app = app.P.name;
          all_s = s 0;
          wc_s = s 1;
          vanilla_s = s 2;
          dram_s = s 3;
          young_dram_s = s 4;
        })
      apps
  in
  Digest.to_hex (Digest.string (Marshal.to_string rows []))

(** Fingerprint of a simulated result by value.  [No_sharing] keeps it
    independent of how the compiler happened to share immutable blocks,
    which differs between build profiles. *)
let value_digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* The traced loop.  [Runner.execute] and [Mutator.run] are single calls,
   so they cannot show graph generation apart from collection; the
   functions below repeat their steps call for call, each layer call in
   its own span.  The fidelity test holds the result pause-for-pause
   equal to [Runner.execute]. *)

(* Runner.execute's configuration for a setup. *)
let config (options : R.options) (profile : P.t) setup =
  let preset =
    match setup with
    | R.Vanilla | R.Vanilla_dram | R.Young_gen_dram -> `Vanilla
    | R.Write_cache_only -> `Write_cache
    | R.All_opts | R.Young_dram_plus_opts -> `All
  in
  let c = Workloads.Apps.gc_config profile ~preset ~threads:options.R.threads in
  let c = { c with Nvmgc.Gc_config.verify = c.Nvmgc.Gc_config.verify && options.R.verify } in
  match setup with
  | R.Young_dram_plus_opts -> { c with Nvmgc.Gc_config.write_cache = false }
  | R.Vanilla | R.Write_cache_only | R.All_opts | R.Vanilla_dram | R.Young_gen_dram -> c

(* Runner.execute's heap placement for a setup. *)
let placement = function
  | R.Vanilla | R.Write_cache_only | R.All_opts -> (Memsim.Access.Nvm, None)
  | R.Vanilla_dram -> (Memsim.Access.Dram, None)
  | R.Young_gen_dram | R.Young_dram_plus_opts ->
      (Memsim.Access.Nvm, Some Memsim.Access.Dram)

(* Mutator's app-phase traffic injection. *)
let record_app_traffic memory (profile : P.t) ~space ~from_ns ~until_ns =
  let base_s = profile.P.app_ms_between_gcs /. 1e3 in
  let bytes = profile.P.app_gbps_dram *. 1e9 *. base_s in
  let heap_share = 0.8 in
  let wf = profile.P.app_write_fraction in
  Memsim.Memory.record_background memory ~from_ns ~until_ns ~space
    ~read_bytes:(bytes *. heap_share *. (1.0 -. wf))
    ~write_bytes:(bytes *. heap_share *. wf);
  if space <> Memsim.Access.Dram then
    Memsim.Memory.record_background memory ~from_ns ~until_ns
      ~space:Memsim.Access.Dram
      ~read_bytes:(bytes *. (1.0 -. heap_share) *. (1.0 -. wf))
      ~write_bytes:(bytes *. (1.0 -. heap_share) *. wf)

type traced = {
  pauses : Nvmgc.Gc_stats.pause list;  (** in execution order *)
  live_objects : int;  (** summed over cycles *)
  gc : Nvmgc.Young_gc.t;
  memory : Memsim.Memory.t;
}

let run_traced spans (options : R.options) (profile : P.t) setup =
  let layer name f = Span.record spans name f in
  let config = config options profile setup in
  let heap_space, young_space = placement setup in
  let heap =
    layer "simheap.create" (fun () ->
        Simheap.Heap.create (P.heap_config ~heap_space ?young_space profile))
  in
  let memory =
    layer "memsim.create" (fun () ->
        Memsim.Memory.create (P.memory_config profile))
  in
  let gc =
    layer "nvmgc.create" (fun () -> Nvmgc.Young_gc.create ~heap ~memory config)
  in
  let rng = Simstats.Prng.create options.R.seed in
  let old_pool =
    layer "workloads.old_space" (fun () -> Workloads.Old_space.create heap)
  in
  let space = Simheap.Heap.young_space heap in
  let device = Memsim.Memory.device memory space in
  let now = ref 0.0 and pauses = ref [] and live = ref 0 in
  for _cycle = 1 to R.gcs_for options profile do
    layer "workloads.reset" (fun () ->
        Simheap.Heap.clear_roots heap;
        Workloads.Old_space.reset_cycle old_pool);
    let graph =
      layer "workloads.graph_gen" (fun () ->
          Workloads.Graph_gen.generate ~heap ~profile
            ~rng:(Simstats.Prng.split rng) ~old_pool)
    in
    live := !live + graph.Workloads.Graph_gen.live_objects;
    let phase =
      layer "workloads.app_phase" (fun () ->
          let phase = Workloads.Mutator.app_phase_ns profile ~device in
          record_app_traffic memory profile ~space ~from_ns:!now
            ~until_ns:(!now +. phase);
          phase)
    in
    now := !now +. phase;
    let pause =
      layer "nvmgc.collect" (fun () -> Nvmgc.Young_gc.collect gc ~now_ns:!now)
    in
    now := !now +. pause.Nvmgc.Gc_stats.pause_ns;
    pauses := pause :: !pauses;
    layer "workloads.recycle" (fun () ->
        Workloads.Old_space.recycle old_pool
          ~keep_free:(P.young_regions profile + 8))
  done;
  { pauses = List.rev !pauses; live_objects = !live; gc; memory }
