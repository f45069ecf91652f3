(* The ledger's metric tables.  BENCHMARK.json at the repo root mirrors
   them (a test holds the two equal); README.md says which end-to-end
   metric and workload each per-layer metric should move. *)

type better = Higher | Lower

type t = {
  name : string;
  unit : string;
  better : better;
  bound : float;
      (** end-to-end only: the share of the parent's median by which the
          metric may worsen before a change counts as a regression *)
}

let m ?(bound = 0.0) name unit better = { name; unit; better; bound }

(* Every end-to-end metric is defined on every workload.  A "cell" is one
   operation: a sweep cell (one (app, setup) run) or one 25-case fuzz or
   crash campaign.  A "case" is a sweep cell or one fuzz case. *)
let end_to_end =
  [
    m "objects_per_cpu_s" "obj/CPU-s" Higher ~bound:0.25;
    m "cases_per_cpu_s" "cases/CPU-s" Higher ~bound:0.25;
    m "cell_ms_p50" "ms" Lower ~bound:0.25;
    m "cell_ms_p90" "ms" Lower ~bound:0.25;
    m "wall_s" "s" Lower ~bound:0.25;
    m "setup_s" "s" Lower ~bound:0.25;
    m "peak_rss_mb" "MB" Lower ~bound:0.25;
    m "success_rate" "ratio" Higher ~bound:0.001;
  ]

let per_layer =
  [
    m "workloads.graph_gen_ms" "ms" Lower;
    m "workloads.graph_gen_share" "ratio" Lower;
    m "workloads.graph_gen_ns_per_object" "ns/obj" Lower;
    m "workloads.recycle_ms" "ms" Lower;
    m "workloads.app_phase_ms" "ms" Lower;
    m "workloads.live_objects" "count" Higher;
    m "nvmgc.create_ms" "ms" Lower;
    m "nvmgc.collect_ms" "ms" Lower;
    m "nvmgc.collect_share" "ratio" Lower;
    m "nvmgc.collect_ns_per_object" "ns/obj" Lower;
    m "nvmgc.objects_copied" "count" Higher;
    m "nvmgc.refs_processed" "count" Higher;
    m "nvmgc.header_map_hit_rate" "ratio" Higher;
    m "nvmgc.header_map_fallbacks" "count" Lower;
    m "nvmgc.steals" "count" Lower;
    m "nvmgc.sync_flush_share" "ratio" Lower;
    m "nvmgc.idle_share" "ratio" Lower;
    m "nvmgc.header_map_put_ns" "ns" Lower;
    m "nvmgc.header_map_get_ns" "ns" Lower;
    m "nvmgc.work_stack_push_pop_ns" "ns" Lower;
    m "memsim.create_ms" "ms" Lower;
    m "memsim.llc_line_accesses" "count" Lower;
    m "memsim.llc_hit_rate" "ratio" Higher;
    m "memsim.llc_writebacks" "count" Lower;
    m "memsim.nvm_write_mb" "MB" Lower;
    m "memsim.nvm_queue_wait_share" "ratio" Lower;
    m "memsim.access_calls" "count" Lower;
    m "memsim.llc_run_calls" "count" Lower;
    m "memsim.sampled_share" "ratio" Lower;
    m "memsim.create_us" "us" Lower;
    m "memsim.access_run_ns" "ns" Lower;
    m "memsim.access_run_seq_ns" "ns" Lower;
    m "memsim.llc_run_ns" "ns" Lower;
    m "simheap.create_ms" "ms" Lower;
    m "verify.snapshot_ms" "ms" Lower;
    m "verify.invariants_ms" "ms" Lower;
    m "verify.oracle_diff_ms" "ms" Lower;
    m "verify.share" "ratio" Lower;
    m "verify.ns_per_object" "ns/obj" Lower;
    m "simcheck.other_ms" "ms" Lower;
    m "simcheck.instantiate_us" "us" Lower;
    m "simcheck.variant_runs" "count" Higher;
    m "ocaml.minor_words_per_object" "words/obj" Lower;
    m "model.sim_gc_ms" "ms" Lower;
    m "ledger.residual_share" "ratio" Lower;
    m "ledger.trace_overhead_share" "ratio" Lower;
  ]

let better_name = function Higher -> "higher" | Lower -> "lower"

let find name =
  List.find (fun x -> x.name = name) (end_to_end @ per_layer)

(** Signed relative change from [base] to [v], positive when worse. *)
let worsening x ~base v =
  let d = (v -. base) /. Float.abs base in
  match x.better with Higher -> -.d | Lower -> d
