(** Resizable arrays.

    OCaml 5.1 predates [Dynarray] in the standard library, so the simulator
    carries its own minimal growable-array implementation.  Elements are
    stored in a backing array that doubles on demand; [get]/[set] are
    bounds-checked against the logical length. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;  (** filler for unused backing slots *)
}

let create ?(capacity = 8) dummy =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; len = 0; dummy }

let length t = t.len

let is_empty t = t.len = 0

let clear t =
  (* Release references so the OCaml GC can reclaim stored elements.  A
     reset heap clears dozens of vectors that are already empty, so skip
     the C call for those. *)
  if t.len > 0 then Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

(* [clear], and drop a backing array grown past [capacity] for a fresh
   one of that size: a long-lived owner of per-pause scratch keeps small
   buffers but does not hold a large one between pauses. *)
let clear_to t ~capacity =
  if Array.length t.data > capacity then begin
    t.data <- Array.make (max capacity 1) t.dummy;
    t.len <- 0
  end
  else clear t

let ensure_capacity t needed =
  let cap = Array.length t.data in
  if needed > cap then begin
    let new_cap = max needed (cap * 2) in
    let data = Array.make new_cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    let x = t.data.(t.len) in
    t.data.(t.len) <- t.dummy;
    Some x
  end

let pop_or_dummy t =
  (* Allocation-free pop for hot loops: callers must test [is_empty]
     first (or be able to treat the dummy as "nothing"), since an empty
     vector returns the dummy rather than [None]. *)
  if t.len = 0 then t.dummy
  else begin
    t.len <- t.len - 1;
    let x = t.data.(t.len) in
    t.data.(t.len) <- t.dummy;
    x
  end

let pop_exn t =
  match pop t with
  | Some x -> x
  | None -> invalid_arg "Vec.pop_exn: empty"

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let unsafe_get t i = t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x

(** [take_front t n] removes up to [n] elements from the bottom (oldest end)
    of the vector and returns them in push order.  Used by work-stealing,
    which steals from the opposite end to the owner's pops. *)
let take_front t n =
  let n = min n t.len in
  if n = 0 then []
  else begin
    let stolen = Array.to_list (Array.sub t.data 0 n) in
    Array.blit t.data n t.data 0 (t.len - n);
    Array.fill t.data (t.len - n) n t.dummy;
    t.len <- t.len - n;
    stolen
  end

let reverse_in_place t =
  let data = t.data in
  let i = ref 0 and j = ref (t.len - 1) in
  while !i < !j do
    let tmp = data.(!i) in
    data.(!i) <- data.(!j);
    data.(!j) <- tmp;
    incr i;
    decr j
  done

(** Fisher–Yates over the live prefix, drawing exactly as {!Prng.shuffle}
    does on an array of the same length — callers that migrate from
    [Array.of_list]+[Prng.shuffle] to a reused vector keep a bit-identical
    generator stream. *)
let shuffle rng t =
  let data = t.data in
  for i = t.len - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let tmp = data.(i) in
    data.(i) <- data.(j);
    data.(j) <- tmp
  done

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let to_list t = List.init t.len (fun i -> t.data.(i))

let to_array t = Array.sub t.data 0 t.len

let of_list dummy xs =
  let t = create ~capacity:(max 1 (List.length xs)) dummy in
  List.iter (push t) xs;
  t

let last t = if t.len = 0 then None else Some t.data.(t.len - 1)
