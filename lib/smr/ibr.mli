(** IBR: interval-based reclamation, 2GE variant (Wen et al. [34]).

    One reservation interval per thread covering the birth eras of
    everything it may hold; a protected load republishes the upper bound
    until the global era is stable across it, without touching the node.
    No per-pointer slots.  Robust. *)

include Smr_intf.S
