(* Direct unit tests for the Figure-4 asynchronous-flush readiness
   protocol (paper §4.2): arming, the steal conservatism, readiness
   after a drained tracker, and the cross-pair re-arm rule — exercised
   on synthetic pairs, without running an evacuation around them. *)

module R = Simheap.Region
module WS = Nvmgc.Work_stack
module WC = Nvmgc.Write_cache
module FT = Nvmgc.Flush_tracker

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A synthetic (cache, shadow) pair; the tracker only reads the regions'
   index and [stolen_from], so empty regions suffice. *)
let make_pair idx =
  let cache =
    R.create ~idx ~base:(0x100000 + (idx * 0x10000)) ~bytes:8192
      ~space:Memsim.Access.Dram ~kind:R.Cache
  in
  let shadow =
    R.create ~idx:(idx + 100)
      ~base:(0x800000 + (idx * 0x10000))
      ~bytes:8192 ~space:Memsim.Access.Nvm ~kind:R.Survivor
  in
  { WC.cache; shadow; filled = false; flushed = false; last = WS.no_slot }

(* Work items are packed slot ids: any distinct non-negative ints do,
   since the tracker matches them by integer equality only.  A slot's
   home is its pair's cache-region index. *)
let home_of (pair : WC.pair) = pair.WC.cache.R.idx

let test_on_copy_arms_first_only () =
  let pair = make_pair 0 in
  let a = 2 and b = 4 in
  FT.on_copy pair ~first_slot:a;
  check_int "armed with first slot" a pair.WC.last;
  FT.on_copy pair ~first_slot:b;
  check_int "second copy does not re-arm" a pair.WC.last;
  FT.on_copy pair ~first_slot:WS.no_slot;
  check_int "copy without references leaves arming" a pair.WC.last

let test_ready_when_memorized_pops_filled () =
  let pair = make_pair 0 in
  let a = 2 in
  FT.on_copy pair ~first_slot:a;
  WC.mark_filled pair;
  check_bool "filled but memorized pending: not ready on fill" false
    (FT.ready_on_fill pair);
  (match
     FT.on_processed pair ~slot:a ~referent_first_slot:WS.no_slot
       ~referent_home:WS.no_home
   with
  | FT.Ready p -> check_bool "ready pair is this pair" true (p == pair)
  | FT.Keep | FT.Rearmed | FT.Lost ->
      Alcotest.fail "memorized pop on a filled pair must be Ready");
  check_bool "tracking consumed" true (pair.WC.last < 0)

let test_steal_during_arm_blocks_flush () =
  (* Stealing breaks the LIFO order the protocol relies on: a pair whose
     cache region was stolen from must never be reported ready, even
     when its memorized item pops after the fill. *)
  let pair = make_pair 0 in
  let a = 2 in
  FT.on_copy pair ~first_slot:a;
  pair.WC.cache.R.stolen_from <- true;
  WC.mark_filled pair;
  check_bool "stolen pair not ready on fill" false (FT.ready_on_fill pair);
  (match
     FT.on_processed pair ~slot:a ~referent_first_slot:WS.no_slot
       ~referent_home:WS.no_home
   with
  | FT.Lost -> ()
  | FT.Ready _ -> Alcotest.fail "stolen pair must never be Ready"
  | FT.Keep | FT.Rearmed ->
      Alcotest.fail "memorized pop with no referent must drop tracking");
  check_bool "still not ready after the drain" false (FT.ready_on_fill pair)

let test_ready_on_fill_after_drain () =
  (* The memorized item pops while the pair is still open and the
     referent contributes nothing: tracking drains to unarmed.  When the
     pair later fills, it is immediately flushable. *)
  let pair = make_pair 0 in
  let a = 2 in
  FT.on_copy pair ~first_slot:a;
  (match
     FT.on_processed pair ~slot:a ~referent_first_slot:WS.no_slot
       ~referent_home:WS.no_home
   with
  | FT.Lost -> ()
  | FT.Ready _ -> Alcotest.fail "open pair must not be Ready"
  | FT.Keep | FT.Rearmed ->
      Alcotest.fail "memorized pop with no referent must drop tracking");
  check_bool "tracking drained" true (pair.WC.last < 0);
  check_bool "not ready while open" false (FT.ready_on_fill pair);
  WC.mark_filled pair;
  check_bool "ready once filled" true (FT.ready_on_fill pair);
  pair.WC.flushed <- true;
  check_bool "never ready once flushed" false (FT.ready_on_fill pair)

let test_cross_pair_rearm_regression () =
  (* Figure 4c: popping the memorized item of an open pair re-arms it
     with the referent's first item — but only when that item is homed
     in this very pair.  Re-arming with a foreign pair's item would
     memorize a reference that pops with the foreign pair as its home,
     so it would never match and the pair would silently lose
     async-flush eligibility forever. *)
  let pair = make_pair 0 and other = make_pair 1 in
  let a = 2 in
  let foreign = 4 in
  FT.on_copy pair ~first_slot:a;
  (match
     FT.on_processed pair ~slot:a ~referent_first_slot:foreign
       ~referent_home:(home_of other)
   with
  | FT.Lost -> ()
  | FT.Ready _ -> Alcotest.fail "open pair must not be Ready"
  | FT.Keep | FT.Rearmed -> Alcotest.fail "foreign slot must drop tracking");
  check_bool "foreign slot must NOT re-arm" true (pair.WC.last < 0);
  (* Same shape, but the referent's item is homed here: re-arm. *)
  let pair2 = make_pair 2 in
  let b = 6 and own = 8 in
  FT.on_copy pair2 ~first_slot:b;
  (match
     FT.on_processed pair2 ~slot:b ~referent_first_slot:own
       ~referent_home:(home_of pair2)
   with
  | FT.Rearmed -> ()
  | FT.Ready _ -> Alcotest.fail "open pair must not be Ready"
  | FT.Keep | FT.Lost -> Alcotest.fail "same-pair slot must re-arm");
  check_int "same-pair slot re-arms" own pair2.WC.last;
  (* The re-armed item behaves like the original memorized one. *)
  WC.mark_filled pair2;
  match
    FT.on_processed pair2 ~slot:own ~referent_first_slot:WS.no_slot
      ~referent_home:WS.no_home
  with
  | FT.Ready p -> check_bool "re-armed pop is Ready" true (p == pair2)
  | FT.Keep | FT.Rearmed | FT.Lost ->
      Alcotest.fail "re-armed memorized pop on filled pair must be Ready"

let test_unrelated_pop_is_keep () =
  let pair = make_pair 0 in
  let a = 2 and b = 4 in
  FT.on_copy pair ~first_slot:a;
  WC.mark_filled pair;
  (match
     FT.on_processed pair ~slot:b ~referent_first_slot:WS.no_slot
       ~referent_home:WS.no_home
   with
  | FT.Keep -> ()
  | FT.Ready _ | FT.Rearmed | FT.Lost ->
      Alcotest.fail "non-memorized pop must be Keep");
  check_int "arming untouched" a pair.WC.last

let () =
  Alcotest.run "flush_tracker"
    [
      ( "protocol",
        [
          Alcotest.test_case "on_copy arms first only" `Quick
            test_on_copy_arms_first_only;
          Alcotest.test_case "memorized pop on filled pair is Ready" `Quick
            test_ready_when_memorized_pops_filled;
          Alcotest.test_case "steal during arm blocks flush" `Quick
            test_steal_during_arm_blocks_flush;
          Alcotest.test_case "ready_on_fill after drain" `Quick
            test_ready_on_fill_after_drain;
          Alcotest.test_case "cross-pair re-arm regression" `Quick
            test_cross_pair_rearm_regression;
          Alcotest.test_case "unrelated pop is Keep" `Quick
            test_unrelated_pop_is_keep;
        ] );
    ]
