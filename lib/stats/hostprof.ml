(** Lightweight host-time sampling profile over coarse phases.

    The simulator's own clocks are simulated time; this module answers
    the different question "where does the {e host's} wall clock go when
    we run a sweep?", which is what the serial-throughput work needs.

    Hot code marks the phase it is executing with {!enter}/{!leave} —
    two plain stores, cheap enough for the memory-model inner loop — and
    a driver (the performance ledger's sampling child, bench/ledger)
    arranges for {!tick} to run on a profiling-timer signal (SIGPROF via
    [Unix.setitimer]).
    Each tick attributes one sample to the current phase.  The driver
    owns the timer so this library carries no [unix] dependency and the
    sampler costs nothing when no driver installed one.

    Accuracy notes: OCaml delivers signals at safepoints, so samples are
    biased toward allocation-heavy code — fine for ranking phases, not
    for nanosecond accounting.  The phase register is process-global and
    unsynchronized; profile single-domain (serial) runs. *)

let max_phases = 32

(* Phase 0 is the implicit "other" bucket: anything not between an
   [enter]/[leave] pair. *)
let names = Array.make max_phases "other"
let n_phases = ref 1
let sample_counts = Array.make max_phases 0
let current = ref 0

let register name =
  (* Re-registration (e.g. a test re-initializing a module) reuses the
     existing slot so sample attribution stays stable. *)
  let rec find i =
    if i >= !n_phases then -1 else if names.(i) = name then i else find (i + 1)
  in
  match find 0 with
  | -1 ->
      if !n_phases >= max_phases then 0
      else begin
        let id = !n_phases in
        names.(id) <- name;
        n_phases := id + 1;
        id
      end
  | id -> id

(* Optional exact per-phase allocation attribution: when armed, every
   phase switch charges the minor words allocated since the previous
   switch to the phase being left.  Unlike the sampling counters this is
   deterministic, so it is the noise-free signal for de-boxing work —
   but reading [Gc.minor_words] costs a C call (plus one boxed float)
   per switch, so it stays off unless a driver arms it.  The cold path
   pays one load-and-branch. *)
let track_alloc = ref false
let alloc_words = Array.make max_phases 0.0
let switch_count = Array.make max_phases 0
let last_minor = Array.make 1 0.0

let alloc_switch prev =
  let mw = Gc.minor_words () in
  alloc_words.(prev) <- alloc_words.(prev) +. (mw -. last_minor.(0));
  switch_count.(prev) <- switch_count.(prev) + 1;
  last_minor.(0) <- mw

let enter id =
  let prev = !current in
  current := id;
  if !track_alloc then alloc_switch prev;
  prev

let leave prev =
  let cur = !current in
  current := prev;
  if !track_alloc then alloc_switch cur

let tick () = sample_counts.(!current) <- sample_counts.(!current) + 1

let set_alloc_tracking on =
  if on then last_minor.(0) <- Gc.minor_words ();
  track_alloc := on

let alloc_samples () =
  let rows = ref [] in
  for i = !n_phases - 1 downto 0 do
    if alloc_words.(i) > 0.0 || switch_count.(i) > 0 then
      rows := (names.(i), alloc_words.(i), switch_count.(i)) :: !rows
  done;
  List.sort (fun (_, a, _) (_, b, _) -> compare b a) !rows

let reset () =
  Array.fill sample_counts 0 max_phases 0;
  Array.fill alloc_words 0 max_phases 0.0;
  Array.fill switch_count 0 max_phases 0

let total () = Array.fold_left ( + ) 0 sample_counts

let samples () =
  let rows = ref [] in
  for i = !n_phases - 1 downto 0 do
    if sample_counts.(i) > 0 then rows := (names.(i), sample_counts.(i)) :: !rows
  done;
  List.sort (fun (_, a) (_, b) -> compare b a) !rows
