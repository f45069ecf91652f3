(** Lock-free bounded closed-hashing forwarding-pointer table in DRAM
    (paper §3.3, Algorithm 1). *)

type t

val entry_bytes : int
val entry_addr : int -> int
(** Simulated DRAM address of an entry, for cost accounting. *)

val create : entries:int -> search_bound:int -> t
(** Capacity is rounded up to a power of two (>= 64). *)

val size : t -> int

val fits : t -> entries:int -> search_bound:int -> bool
(** Whether [create ~entries ~search_bound] would build a table of this
    one's size and probe bound (so a reset one can stand in for it). *)

val occupied : t -> int
(** Number of claimed entries (the occupancy counter's raw value). *)

val occupancy : t -> float

val key_at : t -> int -> int
val value_at : t -> int -> int
(** Direct entry inspection for tests and the invariant verifier. *)

val nonzero_entries : t -> int
(** Entries with a non-zero key, counted by scanning the table — ground
    truth for [occupied] (O(size); verifier/test use only). *)

val probe_addr : t -> key:int -> int
(** Simulated DRAM address of the first entry probed for [key] — [put]
    and [get] start their scans exactly there. *)

type put_result =
  | Installed
  | Found of int  (** racing installer won; its forwarding pointer *)
  | Full  (** probe bound exhausted; fall back to the NVM header *)

val put : t -> key:int -> value:int -> put_result * int
(** Install [value] as the forwarding pointer for old address [key].
    Returns the outcome and the probe count.  Keys and values must be
    non-zero. *)

val get : t -> key:int -> int option * int
(** Look up a forwarding pointer; [None] means the caller must check the
    object header on NVM.  Returns the probe count. *)

val put_code : t -> key:int -> value:int -> int
(** Allocation-free [put]: [0] = installed, [-1] = probe bound exhausted
    (fall back to the NVM header), any other value = a racing installer's
    forwarding pointer.  The probe count is left in {!last_probes}.  The
    evacuation engine runs one [put] per copied object, so the hot path
    must not box a result tuple. *)

val get_addr : t -> key:int -> int
(** Allocation-free [get]: the forwarding pointer, or [0] (the null
    address, never a legal value) when the caller must check the object
    header on NVM.  The probe count is left in {!last_probes}. *)

val last_probes : t -> int
(** Probe count of the latest {!get_addr}/{!put_code} on this table —
    out-of-band so hot-path lookups need not allocate a tuple. *)

val clear_range : t -> lo:int -> hi:int -> unit
val clear : t -> unit

val reset : t -> unit
(** {!clear}, and forget the last probe count: the state of [create]. *)
