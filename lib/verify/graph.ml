(** Canonical live-object graph of a simulated heap.

    Built for differential testing: two heaps constructed from the same
    seeded specification assign the same object ids (the per-heap id
    counter is deterministic), so after collecting each under a different
    {!Nvmgc.Gc_config} their captures must be structurally equal — object
    addresses are deliberately erased, because every configuration is free
    to place copies wherever it likes.  [lib/simcheck] captures the heap
    after each pause and diffs every configuration against the first. *)

module O = Simheap.Objmodel
module H = Simheap.Heap

(** A reference field with the placement erased. *)
type field =
  | FNull
  | FLive of int  (** a live object, named by its stable id *)
  | FDangling of int  (** an address with no live binding — always a bug *)

type node = { id : int; size : int; fields : field array }
type root = { root_id : int; target : field }

type t = {
  nodes : node array;  (** every live binding, ascending id *)
  roots : root array;  (** mutator roots, ascending root id *)
}

let field_name = function
  | FNull -> "null"
  | FLive id -> Printf.sprintf "obj:%d" id
  | FDangling addr -> Printf.sprintf "dangling:0x%x" addr

(* Placement-erased referent, through the full address table. *)
let classify heap addr =
  if addr = Simheap.Layout.null then FNull
  else
    let obj = H.find heap addr in
    if obj = O.none then FDangling addr else FLive (O.id (H.store heap) obj)

let field_equal a b =
  match (a, b) with
  | FNull, FNull -> true
  | FLive x, FLive y | FDangling x, FDangling y -> x = y
  | (FNull | FLive _ | FDangling _), _ -> false

let node heap obj =
  let st = H.store heap in
  let fields = Array.make (O.nfields st obj) FNull in
  for i = 0 to Array.length fields - 1 do
    fields.(i) <- classify heap (O.field st obj i)
  done;
  { id = O.id st obj; size = O.size st obj; fields }

let no_node = { id = -1; size = 0; fields = [||] }

let sort_by_id nodes = Array.sort (fun a b -> Int.compare a.id b.id) nodes

let capture heap =
  let nodes = Array.make (H.live_objects heap) no_node in
  let k = ref 0 in
  H.iter_bindings
    (fun _addr obj ->
      nodes.(!k) <- node heap obj;
      incr k)
    heap;
  sort_by_id nodes;
  let live_roots = H.roots heap in
  let roots =
    Array.init (Simstats.Vec.length live_roots) (fun i ->
        let r = Simstats.Vec.unsafe_get live_roots i in
        { root_id = r.O.root_id; target = classify heap r.O.target })
  in
  Array.sort (fun (a : root) b -> Int.compare a.root_id b.root_id) roots;
  { nodes; roots }

(* Like {!capture}, but over an explicit object set instead of the whole
   address table — the crash-recovery oracle hands it the objects that
   survive a simulated power failure.  Field classification still goes
   through the full address table: mid-pause both the old and the new
   binding of an evacuated object resolve to the same id, which is what
   makes the comparison placement-erased (a reference slot matches its
   pre-crash value whether or not its update was lost). *)
let capture_objects heap objs =
  let nodes = Array.map (node heap) objs in
  sort_by_id nodes;
  { nodes; roots = [||] }

(* Both sides of a comparison are sorted by key, and callers probe keys
   in ascending order, so each lookup is a step of one merge: [cursor]
   only moves forward, past keys below [k].  Returns the index of the
   {e last} element keyed [k] (a table filled in array order keeps the
   last of equal keys), or -1. *)
let seek key a cursor k =
  let n = Array.length a in
  while !cursor < n && key a.(!cursor) < k do
    incr cursor
  done;
  if !cursor >= n || key a.(!cursor) <> k then -1
  else begin
    let i = ref !cursor in
    while !i + 1 < n && key a.(!i + 1) = k do
      incr i
    done;
    !i
  end

let node_id (n : node) = n.id
let root_key (r : root) = r.root_id

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)

let max_messages = 20

let diff ~expected ~got =
  let msgs = ref [] and count = ref 0 in
  let add fmt =
    Format.kasprintf
      (fun m ->
        incr count;
        if !count <= max_messages then msgs := m :: !msgs)
      fmt
  in
  let g_cursor = ref 0 in
  Array.iter
    (fun n ->
      if seek node_id got.nodes g_cursor n.id < 0 then
        add "object %d expected live but absent" n.id)
    expected.nodes;
  let e_cursor = ref 0 in
  Array.iter
    (fun n ->
      match seek node_id expected.nodes e_cursor n.id with
      | -1 -> add "object %d live but not expected" n.id
      | e ->
          let en = expected.nodes.(e) in
          if n.size <> en.size then
            add "object %d: size %d, expected %d" n.id n.size en.size;
          if Array.length n.fields <> Array.length en.fields then
            add "object %d: %d fields, expected %d" n.id
              (Array.length n.fields)
              (Array.length en.fields)
          else
            Array.iteri
              (fun i f ->
                if not (field_equal f en.fields.(i)) then
                  add "object %d field %d: %s, expected %s" n.id i
                    (field_name f)
                    (field_name en.fields.(i)))
              n.fields)
    got.nodes;
  if Array.length got.roots <> Array.length expected.roots then
    add "%d roots, expected %d"
      (Array.length got.roots)
      (Array.length expected.roots);
  let r_cursor = ref 0 in
  Array.iter
    (fun (r : root) ->
      match seek root_key expected.roots r_cursor r.root_id with
      | -1 -> add "root %d not expected" r.root_id
      | e ->
          let target = expected.roots.(e).target in
          if not (field_equal r.target target) then
            add "root %d: %s, expected %s" r.root_id (field_name r.target)
              (field_name target))
    got.roots;
  let out = List.rev !msgs in
  if !count > max_messages then
    out
    @ [
        Printf.sprintf "... and %d further graph mismatches suppressed"
          (!count - max_messages);
      ]
  else out

let equal a b = diff ~expected:a ~got:b = []

(* Whether [addr], classified through [heap], is the field [f]. *)
let field_is heap addr f =
  if addr = Simheap.Layout.null then (match f with FNull -> true | _ -> false)
  else begin
    let obj = H.find heap addr in
    match f with
    | FNull -> false
    | FLive id -> obj <> O.none && O.id (H.store heap) obj = id
    | FDangling a -> obj = O.none && a = addr
  end

(* Binary search: the index of the last element of [a] (sorted by [key])
   keyed [k] — the one {!seek} finds — or -1. *)
let find_last key a k =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key a.(mid) <= k then lo := mid + 1 else hi := mid
  done;
  if !lo > 0 && key a.(!lo - 1) = k then !lo - 1 else -1

(* Exactly [diff ~expected ~got:(capture heap) = []], decided without
   building the capture: the differential campaign compares every
   variant's heap against the first variant's graph, and they agree in
   all but failing cases. *)
let agrees ~expected heap =
  let nodes = expected.nodes in
  let seen = Bytes.make (Array.length nodes) '\000' in
  let ok = ref true in
  let st = H.store heap in
  H.iter_bindings
    (fun _addr obj ->
      if !ok then
        match find_last node_id nodes (O.id st obj) with
        | -1 -> ok := false
        | e ->
            let en = nodes.(e) in
            let nfields = O.nfields st obj in
            if O.size st obj <> en.size || nfields <> Array.length en.fields
            then ok := false
            else begin
              for i = 0 to nfields - 1 do
                if not (field_is heap (O.field st obj i) en.fields.(i)) then
                  ok := false
              done;
              Bytes.set seen e '\001'
            end)
    heap;
  !ok
  && Array.for_all
       (fun n -> Bytes.get seen (find_last node_id nodes n.id) <> '\000')
       nodes
  &&
  let roots = H.roots heap in
  Simstats.Vec.length roots = Array.length expected.roots
  && Simstats.Vec.fold_left
       (fun ok (r : O.root) ->
         ok
         &&
         match find_last root_key expected.roots r.O.root_id with
         | -1 -> false
         | e -> field_is heap r.O.target expected.roots.(e).target)
       true roots

let diff_heap ~expected heap =
  if agrees ~expected heap then [] else diff ~expected ~got:(capture heap)

(* Closed-subgraph check: every node of [sub] must appear in [pre] with
   the same size and, field for field, the same placement-erased
   referents.  Unlike {!diff} this does not require [sub] to cover
   [pre] — [sub] is the surviving fraction of a crashed heap, and losing
   objects is exactly what a crash does; what recovery must never see is
   a surviving object that differs from its pre-crash self. *)
let closed_within ~pre sub =
  let msgs = ref [] and count = ref 0 in
  let add fmt =
    Format.kasprintf
      (fun m ->
        incr count;
        if !count <= max_messages then msgs := m :: !msgs)
      fmt
  in
  let cursor = ref 0 in
  Array.iter
    (fun n ->
      match seek node_id pre.nodes cursor n.id with
      | -1 -> add "recovered object %d was not in the pre-crash live graph" n.id
      | e ->
          let en = pre.nodes.(e) in
          if n.size <> en.size then
            add "recovered object %d: size %d, pre-crash %d" n.id n.size en.size;
          if Array.length n.fields <> Array.length en.fields then
            add "recovered object %d: %d fields, pre-crash %d" n.id
              (Array.length n.fields)
              (Array.length en.fields)
          else
            Array.iteri
              (fun i f ->
                match f with
                | FDangling addr ->
                    add "recovered object %d field %d dangles at 0x%x" n.id i
                      addr
                | FNull | FLive _ ->
                    if not (field_equal f en.fields.(i)) then
                      add "recovered object %d field %d: %s, pre-crash %s" n.id
                        i (field_name f)
                        (field_name en.fields.(i)))
              n.fields)
    sub.nodes;
  let out = List.rev !msgs in
  if !count > max_messages then
    out
    @ [
        Printf.sprintf "... and %d further closed-subgraph violations suppressed"
          (!count - max_messages);
      ]
  else out
