(** Simulated Java objects, reference slots and roots.

    An object is a header plus reference fields plus (implicitly) primitive
    payload: [size] counts all of it, so [size - header - 8*nfields] bytes
    are primitive data.  Objects without reference fields model primitive
    arrays, which the paper calls out as the dominant shape in
    naive-bayes.

    Objects live in a flat store (DESIGN.md §11.15): blocks of
    [header_words] bookkeeping words followed by the reference fields, in
    annotated [int array] chunks of one fixed power-of-two size.  A
    handle is a block's offset in the store's word space, so every load
    and store is a plain word access ([caml_modify] never runs, and the
    host GC sees a few pointer-free arrays instead of a record and a field
    array per object).  Every chunk is allocated at full size and never
    copied: a growing store leaves no outgrown array behind, and no block
    straddles two chunks.
    Freed blocks go on exact-size free lists keyed by field count, linked
    through their id word; allocation pops the most recently freed block
    of its class, else carves a new one at the top.  The reuse order
    therefore follows the order of {!free} and {!alloc} calls alone,
    which the simulation makes deterministic. *)

type t = int

let none = -1

(* Word offsets within a block.  [w_meta] packs
   [(age lsl meta_age_shift) lor (nfields lsl 1) lor cached]. *)
let w_id = 0 (* the free-list link once freed *)
let w_addr = 1
let w_phys = 2
let w_size = 3 (* 0 once freed: a live object is at least a header *)
let w_forward = 4
let w_meta = 5
let header_words = 6

(* Field-slot packing (see below); bounds the field count [alloc]
   accepts. *)
let field_bits = 24
let max_fields = 1 lsl field_bits
let field_mask = max_fields - 1
let meta_age_shift = field_bits + 1

type store = {
  mutable chunks : int array array;
      (** [nchunks] chunks in use, then ones kept from an earlier life *)
  mutable nchunks : int;
  chunk_bits : int;
  chunk_mask : int;
  mutable top : int;  (** words carved so far, gaps at chunk ends included *)
  mutable live : int;
  mutable carved : int;  (** blocks carved so far *)
  mutable free_heads : int array;
      (** [free_heads.(n)]: the most recently freed block with [n] fields,
          or [none] *)
  mutable max_class : int;
      (** no free list above this field count was pushed since the last
          {!clear} *)
}

(* Small enough that a fuzz heap's store is one chunk; a heap whose
   regions hold larger objects gets chunks that fit its largest one. *)
let min_chunk_bits = 12

let create_store ~max_object_bytes =
  let need = header_words + (max_object_bytes / Layout.ref_bytes) in
  let rec bits b = if 1 lsl b >= need then b else bits (b + 1) in
  let chunk_bits = bits min_chunk_bits in
  {
    chunks = [||];
    nchunks = 0;
    chunk_bits;
    chunk_mask = (1 lsl chunk_bits) - 1;
    top = 0;
    live = 0;
    carved = 0;
    free_heads = Array.make 16 none;
    max_class = -1;
  }

let live st = st.live
let capacity st = st.carved
let chunk_words st = 1 lsl st.chunk_bits

let[@inline] chunk st h = st.chunks.(h lsr st.chunk_bits)
let[@inline] get st h w = (chunk st h).((h land st.chunk_mask) + w)

let[@inline] set st h w (v : int) =
  (chunk st h).((h land st.chunk_mask) + w) <- v

(* Below [top], a header that fits its chunk is a block carved in this
   life (live, or freed with size 0) or lies in a skipped tail, which
   {!carve} zeroes; a handle in a chunk's last [header_words - 1] words is
   never a block. *)
let is_live st h =
  h >= 0 && h < st.top
  && (h land st.chunk_mask) + header_words <= 1 lsl st.chunk_bits
  && get st h w_size > 0

(* Start chunk [nchunks]: reuse one kept by an earlier life of the store
   (see {!clear}), else allocate it. *)
let add_chunk st =
  let k = st.nchunks in
  if k = Array.length st.chunks then begin
    let chunks = Array.make (Int.max 4 (2 * k)) [||] in
    Array.blit st.chunks 0 chunks 0 k;
    st.chunks <- chunks
  end;
  if Array.length st.chunks.(k) = 0 then
    st.chunks.(k) <- Array.make (1 lsl st.chunk_bits) 0;
  st.nchunks <- k + 1

let carve st nfields =
  let need = header_words + nfields in
  if need > 1 lsl st.chunk_bits then
    invalid_arg "Objmodel.alloc: object larger than a store chunk";
  (* Skip a chunk's tail that cannot hold the block, zeroing it: a kept
     chunk may hold an earlier life's blocks there. *)
  let o = st.top land st.chunk_mask in
  if o + need > 1 lsl st.chunk_bits then begin
    Array.fill (chunk st st.top) o ((1 lsl st.chunk_bits) - o) 0;
    st.top <- (st.top lor st.chunk_mask) + 1
  end;
  let h = st.top in
  if h lsr st.chunk_bits = st.nchunks then add_chunk st;
  st.top <- h + need;
  st.carved <- st.carved + 1;
  h

let alloc st ~id ~addr ~size ~nfields =
  if nfields < 0 || nfields >= max_fields
     || size < Layout.header_bytes + (nfields * Layout.ref_bytes)
  then invalid_arg "Objmodel.alloc: size too small for the field count";
  let heads = st.free_heads in
  let h =
    if nfields < Array.length heads && heads.(nfields) >= 0 then begin
      let h = heads.(nfields) in
      heads.(nfields) <- get st h w_id;
      h
    end
    else carve st nfields
  in
  let c = chunk st h and o = h land st.chunk_mask in
  c.(o + w_id) <- id;
  c.(o + w_addr) <- addr;
  c.(o + w_phys) <- addr;
  c.(o + w_size) <- size;
  c.(o + w_forward) <- Layout.null;
  c.(o + w_meta) <- nfields lsl 1;
  for i = o + header_words to o + header_words + nfields - 1 do
    c.(i) <- Layout.null
  done;
  st.live <- st.live + 1;
  h

let[@inline] nfields st h = (get st h w_meta lsr 1) land field_mask

let free st h =
  if not (is_live st h) then invalid_arg "Objmodel.free: handle not live";
  let n = nfields st h in
  if n >= Array.length st.free_heads then begin
    let heads = Array.make (Int.max (n + 1) (2 * Array.length st.free_heads)) none in
    Array.blit st.free_heads 0 heads 0 (Array.length st.free_heads);
    st.free_heads <- heads
  end;
  set st h w_size 0;
  set st h w_id st.free_heads.(n);
  st.free_heads.(n) <- h;
  if n > st.max_class then st.max_class <- n;
  st.live <- st.live - 1

(* The chunks stay allocated for the next life (no query sees them), so
   a pooled heap refills its store without allocating. *)
let clear st =
  for n = 0 to st.max_class do
    st.free_heads.(n) <- none
  done;
  st.max_class <- -1;
  st.nchunks <- 0;
  st.top <- 0;
  st.carved <- 0;
  st.live <- 0

let[@inline] id st h = get st h w_id
let[@inline] addr st h = get st h w_addr
let[@inline] set_addr st h v = set st h w_addr v
let[@inline] phys st h = get st h w_phys
let[@inline] set_phys st h v = set st h w_phys v
let[@inline] size st h = get st h w_size
let[@inline] forward st h = get st h w_forward
let[@inline] set_forward st h v = set st h w_forward v
let[@inline] cached st h = get st h w_meta land 1 <> 0

let[@inline] set_cached st h b =
  set st h w_meta (get st h w_meta land lnot 1 lor Bool.to_int b)

let[@inline] age st h = get st h w_meta lsr meta_age_shift

let[@inline] set_age st h a =
  set st h w_meta
    ((get st h w_meta land ((1 lsl meta_age_shift) - 1))
    lor (a lsl meta_age_shift))

let[@inline] field st h i = get st h (header_words + i)
let[@inline] set_field st h i v = set st h (header_words + i) v

let is_array st h = nfields st h = 0 && size st h > Layout.header_bytes

let primitive_bytes st h =
  size st h - Layout.header_bytes - (nfields st h * Layout.ref_bytes)

(** Address of field [i] within the object's official address. *)
let field_addr st h i = addr st h + Layout.header_bytes + (i * Layout.ref_bytes)

(** Address of field [i] within the object's physical storage (the DRAM
    cache copy while the object is cached). *)
let[@inline] field_phys_addr st h i =
  phys st h + Layout.header_bytes + (i * Layout.ref_bytes)

(* ------------------------------------------------------------------ *)
(* Field slots                                                         *)

let[@inline] field_slot h i = (h lsl (field_bits + 1)) lor (i lsl 1)
let[@inline] slot_holder s = s lsr (field_bits + 1)
let[@inline] slot_field s = (s lsr 1) land field_mask

let[@inline] slot_referent st s = field st (slot_holder s) (slot_field s)
let[@inline] slot_write st s v = set_field st (slot_holder s) (slot_field s) v

let[@inline] slot_addr st s =
  field_phys_addr st (slot_holder s) (slot_field s)

(** A mutator root: a slot outside the heap that points at a heap object.
    Root slots live in the dedicated root address range (on DRAM). *)
type root = { root_id : int; mutable target : int }

let root_addr r = Layout.root_addr r.root_id
