(** Open-addressing address→object table backing {!Heap}'s object map.

    The evacuation inner loop performs one lookup per reference slot and
    the workload generator one insert per live object, so the generic
    [Hashtbl] (seeded-hash call, bucket-list traversal, [Some] allocation
    per probe) showed up as a top allocation site in sweep profiles.  This
    table is specialized to the heap's access pattern:

    - keys are heap addresses: strictly positive ints, so [0] can mark an
      empty slot and [-1] a tombstone;
    - multiplicative hashing (high half folded into the index) + linear
      probing over a power-of-two array that starts small and doubles
      with the heap — no per-probe allocation, no runtime hash call;
    - [find] returns the probe index (or [-1]) so callers can fetch the
      value without materializing an option.

    Iteration order differs from [Hashtbl]'s; every consumer of
    {!Heap.iter_bindings} folds into order-insensitive sets, so this is
    unobservable in simulated results. *)

type t = {
  mutable keys : int array;  (** 0 = empty, -1 = tombstone, else address *)
  mutable vals : Objmodel.t array;
  mutable mask : int;  (** capacity - 1; capacity is a power of two *)
  mutable live : int;  (** bound keys *)
  mutable fill : int;  (** bound keys + tombstones *)
}

let empty_key = 0
let tombstone = -1

(* Multiplicative hash with the product's high half folded into the index.
   The low bits of a product depend only on the low bits of its factors, so
   masking [addr * k] alone would send every 8-byte-aligned address to one
   slot in eight, and every object at the same in-region offset to the same
   home slot: clusters that make linear-probe chains grow with the heap.
   Folding in [h lsr 32] lets every address bit reach the index. *)
let slot_of mask addr =
  let h = addr * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 32)) land mask

(* Small, so a table costs what its heap holds: the fill rule in [insert]
   doubles it as objects arrive, and the verifier's full-table walks
   ({!iter}) stay proportional to the heap rather than to the largest one. *)
let initial_capacity = 64

let create () =
  {
    keys = Array.make initial_capacity empty_key;
    vals = Array.make initial_capacity Region.dummy_obj;
    mask = initial_capacity - 1;
    live = 0;
    fill = 0;
  }

let length t = t.live

(* Probe loops are top-level recursions over int arguments: local [ref]
   cursors (or a captured local [let rec]) would allocate on every call,
   and [find] runs once per evacuated reference slot. *)
let rec find_from (keys : int array) mask (addr : int) i =
  let k = keys.(i) in
  if k = addr then i
  else if k = empty_key then -1
  else find_from keys mask addr ((i + 1) land mask)

(** Probe index of [addr], or [-1] when unbound. *)
let find t addr = find_from t.keys t.mask addr (slot_of t.mask addr)

let value t i = t.vals.(i)

let probe_distance t addr =
  let i = find t addr in
  if i < 0 then -1 else (i - slot_of t.mask addr) land t.mask

(* First tombstone seen is reusable, but only if [addr] turns out to be
   absent — [grave] carries its index through the probe. *)
let rec insert_dest (keys : int array) mask (addr : int) i grave =
  let k = keys.(i) in
  if k = addr then i
  else if k = empty_key then if grave >= 0 then grave else i
  else
    insert_dest keys mask addr
      ((i + 1) land mask)
      (if k = tombstone && grave < 0 then i else grave)

let rec insert t addr obj =
  let keys = t.keys and mask = t.mask in
  let d = insert_dest keys mask addr (slot_of mask addr) (-1) in
  if keys.(d) = addr then t.vals.(d) <- obj
  else begin
    if keys.(d) = empty_key then t.fill <- t.fill + 1;
    keys.(d) <- addr;
    t.vals.(d) <- obj;
    t.live <- t.live + 1;
    (* Keep at least 1/4 of slots empty so probe chains stay short. *)
    if t.fill * 4 > 3 * (mask + 1) then grow t
  end

and grow t =
  let old_keys = t.keys and old_vals = t.vals in
  (* Double only when live entries justify it; otherwise the rebuild just
     clears accumulated tombstones. *)
  let cap =
    let c = t.mask + 1 in
    if t.live * 2 > c then c * 2 else c
  in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap Region.dummy_obj;
  t.mask <- cap - 1;
  t.live <- 0;
  t.fill <- 0;
  Array.iteri
    (fun i k -> if k <> empty_key && k <> tombstone then insert t k old_vals.(i))
    old_keys

let remove t addr =
  let i = find t addr in
  if i >= 0 then begin
    t.keys.(i) <- tombstone;
    t.vals.(i) <- Region.dummy_obj;
    t.live <- t.live - 1
  end

let iter f t =
  Array.iteri
    (fun i k -> if k <> empty_key && k <> tombstone then f k t.vals.(i))
    t.keys
