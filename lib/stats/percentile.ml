(** Percentile and order-statistic computation over float samples. *)

(** [of_sorted a p] reads the [p]-quantile (0 <= p <= 1) from an already
    sorted array using linear interpolation between closest ranks. *)
let of_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Percentile.of_sorted: empty sample";
  if p < 0. || p > 1. then invalid_arg "Percentile.of_sorted: p out of range";
  if n = 1 then a.(0)
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let of_unsorted a p =
  let a = Array.copy a in
  Array.sort compare a;
  of_sorted a p

(** Online reservoir for tail-latency collection: keeps all samples (the
    simulations emit bounded counts) but exposes the common percentile
    queries without re-sorting on each call. *)
type reservoir = {
  samples : float Vec.t;
  mutable sorted : float array option;  (** cache, invalidated on add *)
}

let create_reservoir () = { samples = Vec.create 0.0; sorted = None }

let clear_reservoir r =
  Vec.clear r.samples;
  r.sorted <- None

let add r x =
  Vec.push r.samples x;
  r.sorted <- None

let count r = Vec.length r.samples

let sorted r =
  match r.sorted with
  | Some a -> a
  | None ->
      let a = Vec.to_array r.samples in
      Array.sort compare a;
      r.sorted <- Some a;
      a

let quantile r p =
  let a = sorted r in
  if Array.length a = 0 then nan else of_sorted a p

let p50 r = quantile r 0.50
let p95 r = quantile r 0.95
let p99 r = quantile r 0.99
let p99_9 r = quantile r 0.999

let max_sample r =
  let a = sorted r in
  if Array.length a = 0 then nan else a.(Array.length a - 1)

let mean r =
  let n = count r in
  if n = 0 then nan
  else Vec.fold_left ( +. ) 0.0 r.samples /. float_of_int n
