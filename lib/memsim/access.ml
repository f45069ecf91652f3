(** Memory-access descriptors.

    Every cost the simulator charges is described by where the access goes
    (device space), whether it reads or writes, its pattern, and its size
    (passed alongside to {!Memory.access_run_into}).  The [Nt_write] kind
    models x86 non-temporal stores (MOVNTDQ): they bypass the cache
    hierarchy and stream at a higher effective bandwidth on sequential
    data (paper §4.1). *)

type space = Dram | Nvm

type kind = Read | Write | Nt_write

type pattern = Random | Sequential
