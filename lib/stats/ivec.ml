(** Resizable int arrays: {!Vec} specialised to [int] so that every store
    into the backing array is a plain word write (no [caml_modify]) and
    clearing never has to scrub stale elements for the GC. *)

type t = { mutable data : int array; mutable len : int }

(* Empty until the first push: a heap creates two vectors per region,
   and most regions of a cell never hold an object. *)
let create () = { data = [||]; len = 0 }
let length t = t.len
let clear t = t.len <- 0

let clear_to t ~capacity =
  if Array.length t.data > capacity then t.data <- Array.make capacity 0;
  t.len <- 0

let grow t needed =
  let data = Array.make (Int.max needed (Int.max 8 (2 * Array.length t.data))) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t (x : int) =
  if t.len >= Array.length t.data then grow t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop_or t (none : int) =
  if t.len = 0 then none
  else begin
    t.len <- t.len - 1;
    t.data.(t.len)
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ivec.get: index out of bounds";
  t.data.(i)

let unsafe_get t i = t.data.(i)

let set t i (x : int) =
  if i < 0 || i >= t.len then invalid_arg "Ivec.set: index out of bounds";
  t.data.(i) <- x

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

(* The draw sequence of {!Vec.shuffle}, so a caller migrating from a
   [Vec] keeps a bit-identical generator stream. *)
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

let to_array t = Array.sub t.data 0 t.len
