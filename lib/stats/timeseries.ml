(** Bucketed time series.

    Accumulates (time, value) contributions into fixed-width buckets so the
    experiments can render the paper's bandwidth-over-time curves
    (Figures 2, 3 and 7).  Time is in nanoseconds of simulated time; the
    bucket width is chosen by the caller (typically 1 ms of simulated
    time). *)

type t = {
  bucket_ns : float;
  buckets : float Vec.t;  (** accumulated value per bucket *)
}

let create ~bucket_ns =
  if bucket_ns <= 0. then invalid_arg "Timeseries.create: bucket_ns <= 0";
  { bucket_ns; buckets = Vec.create 0.0 }

let bucket_ns t = t.bucket_ns

let clear t = Vec.clear t.buckets

let bucket_of t time_ns = int_of_float (time_ns /. t.bucket_ns)

let ensure t idx =
  while Vec.length t.buckets <= idx do
    Vec.push t.buckets 0.0
  done

(** [add t ~time_ns v] adds [v] to the bucket containing [time_ns]. *)
let add t ~time_ns v =
  let idx = max 0 (bucket_of t time_ns) in
  ensure t idx;
  Vec.set t.buckets idx (Vec.get t.buckets idx +. v)

(** [add_spread t ~from_ns ~until_ns v] distributes [v] proportionally over
    the buckets spanned by the half-open interval.  Used to spread a large
    memory transfer's bytes over its simulated duration. *)
let add_spread t ~from_ns ~until_ns v =
  if until_ns <= from_ns then add t ~time_ns:from_ns v
  else if
    (* Hot path: the whole interval inside one bucket (typical for a
       single memory access against a 1 ms window) — one direct add, no
       proportional split (which would also round [v * total / total]). *)
    until_ns <= float_of_int (max 0 (bucket_of t from_ns) + 1) *. t.bucket_ns
  then add t ~time_ns:from_ns v
  else begin
    let total = until_ns -. from_ns in
    let first = max 0 (bucket_of t from_ns) in
    (* Last bucket overlapped by the half-open interval.  When [until_ns]
       lands exactly on a bucket boundary the interval stops at the
       previous bucket; subtracting an epsilon is not robust (it is
       absorbed for large timestamps and would leave a spurious empty
       trailing bucket), so compare against the candidate's start
       directly. *)
    let last =
      let cand = max first (bucket_of t until_ns) in
      if float_of_int cand *. t.bucket_ns >= until_ns then max first (cand - 1)
      else cand
    in
    ensure t last;
    for idx = first to last do
      let b_start = float_of_int idx *. t.bucket_ns in
      let b_end = b_start +. t.bucket_ns in
      let overlap = min until_ns b_end -. max from_ns b_start in
      if overlap > 0. then
        Vec.set t.buckets idx
          (Vec.get t.buckets idx +. (v *. overlap /. total))
    done
  end

let length t = Vec.length t.buckets

let get t idx = Vec.get t.buckets idx

let total t = Vec.fold_left ( +. ) 0.0 t.buckets

(** [resample t n] folds the series into exactly [n] coarse points by
    averaging, for compact textual output of long traces. *)
let resample t n =
  let len = Vec.length t.buckets in
  if len = 0 || n <= 0 then [||]
  else if n >= len then
    (* Identity: nothing to fold, and the epsilon arithmetic below is
       not exact enough to be trusted with per = 1. *)
    Vec.to_array t.buckets
  else begin
    let out = Array.make (min n len) 0.0 in
    let m = Array.length out in
    let per = float_of_int len /. float_of_int m in
    for i = 0 to m - 1 do
      let lo = int_of_float (float_of_int i *. per) in
      let hi =
        max lo
          (min (len - 1)
             (int_of_float ((float_of_int (i + 1) *. per) -. 1e-9)))
      in
      let acc = ref 0.0 in
      for j = lo to hi do
        acc := !acc +. Vec.get t.buckets j
      done;
      out.(i) <- !acc /. float_of_int (hi - lo + 1)
    done;
    out
  end
