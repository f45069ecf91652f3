(* In-memory host-time spans recorded by the benchmark around its calls
   into each layer's public API (nothing inside lib/ is instrumented).

   A span has a name, a start and an end on the host wall clock, the span
   that was open when it began (its parent), and the cell or case it
   belongs to.  [Group] spans (the round, a sweep cell) only structure
   the trace; [Layer] spans time a call into a library.  A layer's self
   time is its span's duration minus the part of that interval covered
   by its children — the union of the child intervals, so overlapping
   children are not subtracted twice. *)

type kind = Group | Layer

type span = {
  name : string;
  kind : kind;
  id : int;  (** cell or case index; -1 when none *)
  parent : int;  (** index of the enclosing span; -1 at the root *)
  start : float;
  mutable stop : float;
}

type t = {
  clock : unit -> float;
  spans : span Simstats.Vec.t;
  mutable stack : int list;  (** open spans, innermost first *)
}

let dummy =
  { name = ""; kind = Group; id = -1; parent = -1; start = 0.0; stop = 0.0 }

let create ?(clock = Unix.gettimeofday) () =
  { clock; spans = Simstats.Vec.create ~capacity:1024 dummy; stack = [] }

let length t = Simstats.Vec.length t.spans
let get t i = Simstats.Vec.get t.spans i
let parent_of t = match t.stack with p :: _ -> p | [] -> -1

let push t ~kind ~id name ~start ~stop =
  let i = length t in
  Simstats.Vec.push t.spans { name; kind; id; parent = parent_of t; start; stop };
  i

let enter t ?(kind = Layer) ?(id = -1) name =
  let i = push t ~kind ~id name ~start:(t.clock ()) ~stop:nan in
  t.stack <- i :: t.stack;
  i

let leave t i =
  (get t i).stop <- t.clock ();
  match t.stack with
  | j :: rest when j = i -> t.stack <- rest
  | _ -> invalid_arg "Span.leave: not the innermost open span"

let record t ?kind ?id name f =
  let i = enter t ?kind ?id name in
  Fun.protect ~finally:(fun () -> leave t i) f

(** A completed span whose interval the caller measured (e.g. a
    collection bracketed by two verification hooks), attached to the
    innermost open span. *)
let add t ?(kind = Layer) ?(id = -1) name ~start ~stop =
  ignore (push t ~kind ~id name ~start ~stop : int)

let duration s = s.stop -. s.start

let children t =
  let kids = Array.make (length t) [] in
  for i = length t - 1 downto 0 do
    let p = (get t i).parent in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  kids

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let union_length ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let self_time_with kids t i =
  let s = get t i in
  duration s
  -. union_length ~lo:s.start ~hi:s.stop
       (List.map (fun c -> ((get t c).start, (get t c).stop)) kids.(i))

let self_time t i = self_time_with (children t) t i

(** Self time summed per layer-span name, in seconds. *)
let self_by_name t =
  let kids = children t in
  let tbl = Hashtbl.create 16 in
  for i = 0 to length t - 1 do
    let s = get t i in
    if s.kind = Layer then
      Hashtbl.replace tbl s.name
        (self_time_with kids t i
        +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0)
  done;
  tbl

(** Summed duration of the outermost layer spans: those with no layer
    span among their ancestors.  What the round's wall time holds beyond
    this is time no layer span accounts for. *)
let top_level_time t =
  let rec under_layer p =
    p >= 0 && ((get t p).kind = Layer || under_layer (get t p).parent)
  in
  let total = ref 0.0 in
  for i = 0 to length t - 1 do
    let s = get t i in
    if s.kind = Layer && not (under_layer s.parent) then
      total := !total +. duration s
  done;
  !total

(** Chrome-trace JSON ("X" complete events, microseconds from the first
    span), loadable in Perfetto or chrome://tracing. *)
let to_chrome t =
  let open Nvmtrace.Json in
  let kids = children t in
  let t0 = if length t = 0 then 0.0 else (get t 0).start in
  let us x = Float (x *. 1e6) in
  let event i =
    let s = get t i in
    Obj
      [
        ("name", Str s.name);
        ("cat", Str (match s.kind with Group -> "group" | Layer -> "layer"));
        ("ph", Str "X");
        ("ts", us (s.start -. t0));
        ("dur", us (duration s));
        ("pid", Int 1);
        ("tid", Int 1);
        ( "args",
          Obj
            [
              ("id", Int s.id);
              ("parent", Int s.parent);
              ("self_us", us (self_time_with kids t i));
            ] );
      ]
  in
  Obj
    [
      ("traceEvents", List (List.init (length t) event));
      ("displayTimeUnit", Str "ms");
    ]
