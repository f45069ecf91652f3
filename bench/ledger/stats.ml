(* Order statistics for the ledger's summaries. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** Linear-interpolation quantile; [nan] on an empty list. *)
let quantile xs p =
  match xs with [] -> nan | _ -> Simstats.Percentile.of_sorted (sorted xs) p

let median xs = quantile xs 0.5

(** Quartiles by the "exclusive" method of Python's
    [statistics.quantiles(xs, n=4)], so the spreads printed here are the
    ones an external check computing them that way sees.  Needs at least
    two samples. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: fewer than two samples";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* The percentile ladder a timing's tail is reported on. *)
let ladder = [ 0.999; 0.99; 0.9; 0.5 ]

(** The highest percentile of the ladder with at least ten of [n]
    samples beyond it; [None] below twenty samples. *)
let tail_percentile n =
  List.find_opt
    (fun p -> Float.of_int n *. (1.0 -. p) >= 10.0 -. 1e-9)
    ladder

let percentile_name p =
  let s = Printf.sprintf "%g" (p *. 100.0) in
  "p" ^ s
