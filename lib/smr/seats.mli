(** Per-tid registration seats for handle-slot reuse.

    Each scheme instance tracks how many live handles every tid holds:
    {!Smr_intf.S.register} claims a seat, {!Smr_intf.S.deactivate}
    releases it, so a crashed domain's tid can be re-registered once its
    dead handle is deactivated (previously slots were claimed forever).
    Counts rather than booleans because several structures sharing one
    instance may each register the same tid. *)

type t

val create : threads:int -> t

(** Claim one seat for [tid].  Safe from any thread. *)
val claim : t -> tid:int -> unit

(** Release one seat for [tid]; never goes below zero.  Safe from any
    thread. *)
val release : t -> tid:int -> unit

(** Seats currently held by [tid]. *)
val active : t -> tid:int -> int

(** Seats currently held across all tids. *)
val total : t -> int
