(* What the traced round observes beyond spans: the collector's per-pause
   counters, and verification timed step by step through the bench's own
   verify hooks. *)

(* Pause counters summed over a round. *)
type pauses = {
  mutable collects : int;
  mutable objects : int;
  mutable refs : int;
  mutable hm_installs : int;
  mutable hm_fallbacks : int;
  mutable steals : int;
  mutable sync_flushes : int;
  mutable async_flushes : int;
  mutable idle_ns : float;
  mutable thread_ns : float;  (** pause length times GC threads *)
  mutable nvm_write_bytes : float;
}

let pauses () =
  {
    collects = 0;
    objects = 0;
    refs = 0;
    hm_installs = 0;
    hm_fallbacks = 0;
    steals = 0;
    sync_flushes = 0;
    async_flushes = 0;
    idle_ns = 0.0;
    thread_ns = 0.0;
    nvm_write_bytes = 0.0;
  }

let add_pause acc ~threads (p : Nvmgc.Gc_stats.pause) =
  let open Nvmgc.Gc_stats in
  acc.collects <- acc.collects + 1;
  acc.objects <- acc.objects + p.objects_copied;
  acc.refs <- acc.refs + p.refs_processed;
  acc.hm_installs <- acc.hm_installs + p.header_map_installs;
  acc.hm_fallbacks <- acc.hm_fallbacks + p.header_map_fallbacks;
  acc.steals <- acc.steals + p.steals;
  acc.sync_flushes <- acc.sync_flushes + p.sync_flushes;
  acc.async_flushes <- acc.async_flushes + p.async_flushes;
  acc.idle_ns <- acc.idle_ns +. p.idle_ns;
  acc.thread_ns <- acc.thread_ns +. (p.pause_ns *. float_of_int threads);
  acc.nvm_write_bytes <-
    acc.nvm_write_bytes +. p.traffic.Memsim.Memory.nvm_write_bytes

(** Replace the verifier's hooks with ones that do the same work as
    [Verify.Hooks] — oracle snapshot before the pause, invariants and
    oracle diff after it, [Verification_failure] on any message — each
    step in its own span.  [Verify.Hooks.ensure_installed] runs first so
    that no later library call re-registers the stock hooks over these.

    With [collects], a collection whose own call the benchmark cannot
    wrap (inside a fuzz campaign) gets an [nvmgc.collect] span from the
    end of the snapshot to the after-pause hook, and its pause counters
    are added to [collects].  A collection that a crash-campaign case
    kills never reaches the after-pause hook; its time stays in the
    enclosing span.  Without [spans] the hooks only verify, as the stock
    ones do. *)
let install_verify_hooks ?collects ?spans () =
  Verify.Hooks.ensure_installed ();
  let record name f =
    match spans with Some s -> Span.record s name f | None -> f ()
  in
  let now () = match spans with Some s -> s.Span.clock () | None -> nan in
  let pending = ref None and collect_start = ref nan in
  let before_pause gc =
    record "verify.snapshot" (fun () ->
        pending := Some (gc, Verify.Oracle.snapshot gc));
    collect_start := now ()
  in
  let after_pause gc pause =
    (match (collects, spans) with
    | Some acc, Some s ->
        Span.add s "nvmgc.collect" ~start:!collect_start ~stop:(now ());
        add_pause acc
          ~threads:(Nvmgc.Young_gc.config gc).Nvmgc.Gc_config.threads pause
    | _ -> ());
    let snap =
      match !pending with Some (owner, s) when owner == gc -> Some s | _ -> None
    in
    pending := None;
    let violations =
      record "verify.invariants" (fun () -> Verify.Invariants.run gc)
    in
    let mismatches =
      match snap with
      | Some s ->
          record "verify.oracle_diff" (fun () -> Verify.Oracle.diff s gc pause)
      | None -> []
    in
    match violations @ mismatches with
    | [] -> ()
    | msgs ->
        raise
          (Verify.Hooks.Verification_failure
             (Nvmgc.Gc_config.describe (Nvmgc.Young_gc.config gc), msgs))
  in
  Nvmgc.Young_gc.set_verify_hooks
    (Some { Nvmgc.Young_gc.before_pause; after_pause })
