(* Unit costs of single layer operations: each is the median of 11 timed
   batches over fixed seeded inputs.  [prepare] builds a batch's state
   outside the timed interval. *)

let batches = 11

let per_op ~ops ~prepare run =
  Stats.median
    (List.init batches (fun _ ->
         let st = prepare () in
         let t0 = Unix.gettimeofday () in
         run st;
         (Unix.gettimeofday () -. t0) /. float_of_int ops))

let ns x = x *. 1e9
let us x = x *. 1e6

let random_addrs ~n ~align ~span =
  let rng = Simstats.Prng.create 7 in
  Array.init n (fun _ -> align * (1 + Simstats.Prng.int rng (span / align)))

let memsim_create () =
  us
    (per_op ~ops:10 ~prepare:ignore (fun () ->
         for _ = 1 to 10 do
           ignore
             (Sys.opaque_identity
                (Memsim.Memory.create Memsim.Memory.default_config))
         done))

(* Charge [addrs] one access each against a fresh memory system. *)
let access_run ~addrs ~kind ~pattern ~bytes =
  ns
    (per_op ~ops:(Array.length addrs)
       ~prepare:(fun () -> Memsim.Memory.create Memsim.Memory.default_config)
       (fun mem ->
         Array.iteri
           (fun i addr ->
             Memsim.Memory.access_run_into mem
               ~now_ns:(float_of_int i *. 100.0)
               ~addr ~space:Memsim.Access.Nvm ~kind ~pattern ~bytes)
           addrs))

let llc_run ~addrs =
  let c = Memsim.Memory.default_config in
  ns
    (per_op ~ops:(Array.length addrs)
       ~prepare:(fun () ->
         Memsim.Llc.create ~capacity_bytes:c.Memsim.Memory.llc_capacity_bytes
           ~ways:c.Memsim.Memory.llc_ways)
       (fun llc ->
         Array.iter
           (fun addr ->
             ignore
               (Memsim.Llc.access_run llc addr ~lines:1 ~write:false ~seq:false
                  ~nvm:true
                 : Memsim.Llc.outcome))
           addrs))

(* A half-full header map of the "+all" preset's probe bound. *)
let header_map ~keys =
  let search_bound =
    (Nvmgc.Gc_config.all_opts ~threads:28 ~scale:1 ()).Nvmgc.Gc_config.search_bound
  in
  let fresh () =
    Nvmgc.Header_map.create ~entries:(2 * Array.length keys) ~search_bound
  in
  let fill map =
    Array.iter
      (fun key -> ignore (Nvmgc.Header_map.put_code map ~key ~value:key : int))
      keys
  in
  let ops = Array.length keys in
  let put = ns (per_op ~ops ~prepare:fresh fill) in
  let get =
    ns
      (per_op ~ops
         ~prepare:(fun () ->
           let map = fresh () in
           fill map;
           map)
         (fun map ->
           Array.iter
             (fun key ->
               ignore (Nvmgc.Header_map.get_addr map ~key : int))
             keys))
  in
  (put, get)

let work_stack ~n =
  ns
    (per_op ~ops:n ~prepare:Nvmgc.Work_stack.create (fun ws ->
         for i = 0 to n - 1 do
           Nvmgc.Work_stack.push ws ~clock:0.0 ~slot:i
             ~home:Nvmgc.Work_stack.no_home
         done;
         for _ = 1 to n do
           ignore (Nvmgc.Work_stack.pop_nonempty ws : int)
         done))

(* Fuzz-sized heaps: the campaigns' default 40-object bound. *)
let instantiate () =
  let rng = Simstats.Prng.create 11 in
  let specs =
    Array.init 20 (fun _ -> Simcheck.Spec.generate rng ~max_objects:40)
  in
  us
    (per_op ~ops:(Array.length specs) ~prepare:ignore (fun () ->
         Array.iter
           (fun s -> ignore (Sys.opaque_identity (Simcheck.Spec.instantiate s)))
           specs))

let all () =
  let random64 = random_addrs ~n:20_000 ~align:64 ~span:(1 lsl 30) in
  let seq4k = Array.init 2_000 (fun i -> 4096 * (i + 1)) in
  let hm_put, hm_get =
    header_map ~keys:(random_addrs ~n:32_768 ~align:8 ~span:(1 lsl 34))
  in
  [
    ("memsim.create_us", memsim_create ());
    ( "memsim.access_run_ns",
      access_run ~addrs:random64 ~kind:Memsim.Access.Read
        ~pattern:Memsim.Access.Random ~bytes:64 );
    ( "memsim.access_run_seq_ns",
      access_run ~addrs:seq4k ~kind:Memsim.Access.Write
        ~pattern:Memsim.Access.Sequential ~bytes:4096 );
    ("memsim.llc_run_ns", llc_run ~addrs:(random_addrs ~n:50_000 ~align:64 ~span:(1 lsl 30)));
    ("nvmgc.header_map_put_ns", hm_put);
    ("nvmgc.header_map_get_ns", hm_get);
    ("nvmgc.work_stack_push_pop_ns", work_stack ~n:10_000);
    ("simcheck.instantiate_us", instantiate ());
  ]
