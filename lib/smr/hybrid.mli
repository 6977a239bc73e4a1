(** Stall-aware EBR/IBR hybrid (composed scheme, "HYB").

    IBR's read side (one interval per thread, 2GE stable-era loads that
    never touch the node) paired with a two-mode reclamation side: a
    cheap EBR-style single-bound sweep while every reader is current,
    escalating to the full IBR interval-overlap sweep once a reservation
    lags the global era by more than [config.stale_eras], and folding
    back when the straggler resumes or is deactivated.  Both sweep
    predicates are independently safe, so the escalation heuristic
    affects cost only — the scheme is robust. *)

include Smr_intf.S
