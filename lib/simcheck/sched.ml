(** Seeded random schedules for the {!Nvmgc.Schedule} seam.

    A schedule seed expands into a deterministic stream of scheduling
    decisions: which runnable thread steps next, which victim a thief
    raids, whether a thread defers a cache-region grab (copying direct to
    NVM), whether a header-map install is forced onto the NVM-header
    fallback path, and whether an asynchronous flush is left to the
    write-only sub-phase.  Because the engine consults the schedule in a
    deterministic order, seed + heap spec fully determine the run —
    [--seed]/[--schedule] pairs replay exactly.

    {!Fuzz} reserves seed 0: the differential campaign runs it with no
    schedule (the engine's deterministic min-clock policy), the crash
    campaign under the identity {!Nvmgc.Schedule.default}. *)

let of_seed seed =
  let rng = Simstats.Prng.create seed in
  (* Per-schedule biases drawn once, so different seeds explore different
     regimes (e.g. "almost always defer grabs" vs "rarely"). *)
  let p_defer_grab = Simstats.Prng.float rng 0.5 in
  let p_force_fallback = Simstats.Prng.float rng 0.4 in
  let p_defer_flush = Simstats.Prng.float rng 0.6 in
  let pick n = if n <= 0 then 0 else Simstats.Prng.int rng n in
  (* The destructive decisions keep the identity schedule's [false]. *)
  {
    Nvmgc.Schedule.default with
    pick_thread = (fun ~runnable -> pick (Array.length runnable));
    pick_victim = (fun ~thief:_ ~victims -> pick (Array.length victims));
    defer_region_grab =
      (fun ~tid:_ -> Simstats.Prng.float rng 1.0 < p_defer_grab);
    force_hm_fallback =
      (fun ~tid:_ -> Simstats.Prng.float rng 1.0 < p_force_fallback);
    defer_async_flush =
      (fun ~tid:_ -> Simstats.Prng.float rng 1.0 < p_defer_flush);
  }

(* Crash and tamper wrappers replace only destructive decisions and draw
   no randomness (the engine consults [crash] with a counter), so the
   base schedule's PRNG is untouched and a wrapped schedule makes
   exactly the same pick/steal/defer choices as the bare one. *)

let with_crash ~crash_step base =
  { base with Nvmgc.Schedule.crash = (fun ~step -> step >= crash_step) }

let counting base =
  let seen = ref 0 in
  ( {
      base with
      Nvmgc.Schedule.crash =
        (fun ~step ->
          if step > !seen then seen := step;
          false);
    },
    fun () -> !seen )

type tamper = Early_ready | Drop_flush

(* Answers [true] at the first consultation, then [false] for good. *)
let once () =
  let armed = ref true in
  fun ~tid:_ ->
    let fire = !armed in
    armed := false;
    fire

let with_tamper tamper base =
  match tamper with
  | Early_ready -> { base with Nvmgc.Schedule.flush_early = once () }
  | Drop_flush -> { base with Nvmgc.Schedule.drop_flush = once () }
