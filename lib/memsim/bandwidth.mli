(** Mixed-workload bandwidth model: write interference, utilization
    feedback and pattern sensitivity (see implementation header). *)

val mix_penalty : Device.t -> write_frac:float -> float
(** Multiplier in (0, 1]; 1 for pure-read or pure-write streams, minimal
    for 50/50 mixes on high-interference devices. *)

val fmin : float -> float -> float
(** [Float.min], equal to it bit for bit on every input (signed zeros
    and NaNs included), but with no C call outside ties and NaNs. *)

val fmax : float -> float -> float
(** [Float.max], likewise. *)

val mix_bowl : write_frac:float -> float
(** Device-independent part of the penalty ([(4w(1-w))^0.3]) — the one
    [**] on the hot path, run once per device access and once per
    drained write-back.  Compute once per access and feed the [_b]
    variants below; [f_b d k p ~bowl:(mix_bowl ~write_frac)] is
    float-identical to [f d k p ~write_frac]. *)

val service_gbps_b :
  Device.t -> Access.kind -> Access.pattern -> bowl:float -> float

val effective_gbps_b :
  Device.t -> Access.kind -> Access.pattern -> bowl:float -> float

val device_cap : Device.t -> Access.kind -> Access.pattern -> write_frac:float -> float
(** Device-level bandwidth cap (GB/s) for an access class under the
    current read/write mix.  Non-temporal writes bypass the mix penalty. *)

val total_cap :
  Device.t ->
  write_frac:float ->
  shares:float * float * float * float ->
  float
(** Interfered harmonic blend of the class caps under the observed class
    byte shares (read-random, read-seq, write-random, write-seq). *)

val service_gbps :
  Device.t -> Access.kind -> Access.pattern -> write_frac:float -> float
(** Service rate of the device pipe for this access class (the queueing
    model's drain rate). *)

val effective_gbps :
  Device.t -> Access.kind -> Access.pattern -> write_frac:float -> float
(** Bandwidth the issuing thread itself sustains (solo/MLP-limited, never
    above the current class rate). *)

val transfer_ns : bytes:int -> gbps:float -> float
