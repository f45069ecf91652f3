(** Wiring of the verifier and the oracle into {!Nvmgc.Young_gc}.

    [Young_gc] exposes a registration point instead of calling us (this
    library depends on it, not the other way round).  {!ensure_installed}
    registers a pair of hooks once per process; they fire only for
    collectors whose configuration enables verification
    ({!Nvmgc.Gc_config.verify_active}, overridable through the
    [NVMGC_VERIFY] environment variable). *)

exception
  Verification_failure of string * string list
        (** configuration description, violation/mismatch messages *)

let () =
  Printexc.register_printer (function
    | Verification_failure (config, msgs) ->
        Some
          (Printf.sprintf "Verification_failure [%s]:\n  %s" config
             (String.concat "\n  " msgs))
    | _ -> None)

(* The snapshot taken when the current pause began.  [collect] is not
   reentrant within a domain, so one slot per domain suffices; the slot
   is domain-local ({!Domain.DLS}) so parallel sweep workers collecting
   concurrently never see each other's snapshots.  The guard against a
   foreign [gc] covers a before-hook that raised mid-registration. *)
let pending_key : (Nvmgc.Young_gc.t * Oracle.snapshot) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let prof_verify = Simstats.Hostprof.register "verify"

let before_pause gc =
  let prof_prev = Simstats.Hostprof.enter prof_verify in
  Domain.DLS.get pending_key := Some (gc, Oracle.snapshot gc);
  Simstats.Hostprof.leave prof_prev

let after_pause_checked gc pause =
  let pending = Domain.DLS.get pending_key in
  let snap =
    match !pending with
    | Some (owner, snap) when owner == gc ->
        pending := None;
        Some snap
    | Some _ | None ->
        pending := None;
        None
  in
  let violations = Invariants.run gc in
  let mismatches =
    match snap with Some s -> Oracle.diff s gc pause | None -> []
  in
  match violations @ mismatches with
  | [] -> ()
  | msgs ->
      raise
        (Verification_failure
           (Nvmgc.Gc_config.describe (Nvmgc.Young_gc.config gc), msgs))

(* Not [Fun.protect]: this runs after every verified pause, and the two
   closures it takes cost more than the phase switch they guard. *)
let after_pause gc pause =
  let prof_prev = Simstats.Hostprof.enter prof_verify in
  match after_pause_checked gc pause with
  | () -> Simstats.Hostprof.leave prof_prev
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Simstats.Hostprof.leave prof_prev;
      Printexc.raise_with_backtrace e bt

(* Registration is process-global and must happen at most once even
   under concurrent callers: the compare-and-set elects a single
   installer.  Parallel drivers additionally call this before spawning
   workers (install-before-spawn), so worker domains only ever read the
   hook slot. *)
let installed = Atomic.make false

let ensure_installed () =
  if Atomic.compare_and_set installed false true then
    Nvmgc.Young_gc.set_verify_hooks
      (Some { Nvmgc.Young_gc.before_pause; after_pause })
