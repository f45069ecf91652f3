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
    let obj = H.lookup_or_dummy heap addr in
    if obj == Simheap.Region.dummy_obj then FDangling addr else FLive obj.O.id

let field_equal a b =
  match (a, b) with
  | FNull, FNull -> true
  | FLive x, FLive y | FDangling x, FDangling y -> x = y
  | (FNull | FLive _ | FDangling _), _ -> false

let capture heap =
  let nodes = ref [] in
  H.iter_bindings
    (fun _addr (obj : O.t) ->
      nodes :=
        {
          id = obj.O.id;
          size = obj.O.size;
          fields = Array.map (classify heap) obj.O.fields;
        }
        :: !nodes)
    heap;
  let nodes = Array.of_list !nodes in
  Array.sort (fun a b -> compare a.id b.id) nodes;
  let roots = ref [] in
  Simstats.Vec.iter
    (fun (r : O.root) ->
      roots :=
        { root_id = r.O.root_id; target = classify heap r.O.target } :: !roots)
    (H.roots heap);
  let roots = Array.of_list !roots in
  Array.sort (fun (a : root) b -> compare a.root_id b.root_id) roots;
  { nodes; roots }

(* Like {!capture}, but over an explicit object set instead of the whole
   address table — the crash-recovery oracle hands it the objects that
   survive a simulated power failure.  Field classification still goes
   through the full address table: mid-pause both the old and the new
   binding of an evacuated object resolve to the same id, which is what
   makes the comparison placement-erased (a reference slot matches its
   pre-crash value whether or not its update was lost). *)
let capture_objects heap objs =
  let nodes =
    Array.of_list
      (List.map
         (fun (obj : O.t) ->
           {
             id = obj.O.id;
             size = obj.O.size;
             fields = Array.map (classify heap) obj.O.fields;
           })
         objs)
  in
  Array.sort (fun a b -> compare a.id b.id) nodes;
  { nodes; roots = [||] }

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
  let index nodes =
    let tbl = Hashtbl.create (Array.length nodes) in
    Array.iter (fun n -> Hashtbl.replace tbl n.id n) nodes;
    tbl
  in
  let e_ids = index expected.nodes and g_ids = index got.nodes in
  Array.iter
    (fun n ->
      if not (Hashtbl.mem g_ids n.id) then
        add "object %d expected live but absent" n.id)
    expected.nodes;
  Array.iter
    (fun n ->
      match Hashtbl.find_opt e_ids n.id with
      | None -> add "object %d live but not expected" n.id
      | Some en ->
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
  let e_roots = Hashtbl.create 16 in
  Array.iter (fun (r : root) -> Hashtbl.replace e_roots r.root_id r.target)
    expected.roots;
  if Array.length got.roots <> Array.length expected.roots then
    add "%d roots, expected %d"
      (Array.length got.roots)
      (Array.length expected.roots);
  Array.iter
    (fun (r : root) ->
      match Hashtbl.find_opt e_roots r.root_id with
      | None -> add "root %d not expected" r.root_id
      | Some target ->
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
  let pre_ids = Hashtbl.create (Array.length pre.nodes) in
  Array.iter (fun n -> Hashtbl.replace pre_ids n.id n) pre.nodes;
  Array.iter
    (fun n ->
      match Hashtbl.find_opt pre_ids n.id with
      | None -> add "recovered object %d was not in the pre-crash live graph" n.id
      | Some en ->
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
