(* [heap.(0 .. size - 1)] holds indices in heap order; [keys] is indexed
   by the index itself, so a key update is one store and a sift moves
   only ints. *)
type t = { keys : float array; heap : int array; mutable size : int }

let create n = { keys = Array.make n 0.0; heap = Array.make n 0; size = 0 }
let clear t = t.size <- 0
let is_empty t = t.size = 0
let top t = t.heap.(0)

(* Strict (key, index) order: equal keys — [-0.0] and [+0.0] included,
   as the scan's [<] has it — fall to the lower index. *)
let[@inline] before (keys : float array) a b =
  let ka = keys.(a) and kb = keys.(b) in
  ka < kb || (ka = kb && a < b)

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let x = t.heap.(i) and p = t.heap.(parent) in
    if before t.keys x p then begin
      t.heap.(i) <- p;
      t.heap.(parent) <- x;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let c = if r < t.size && before t.keys t.heap.(r) t.heap.(l) then r else l in
    let x = t.heap.(i) and y = t.heap.(c) in
    if before t.keys y x then begin
      t.heap.(i) <- y;
      t.heap.(c) <- x;
      sift_down t c
    end
  end

let add t i key =
  t.keys.(i) <- key;
  t.heap.(t.size) <- i;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let set_top_key t key =
  t.keys.(t.heap.(0)) <- key;
  sift_down t 0

let pop t =
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  sift_down t 0
