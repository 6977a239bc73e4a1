(* An SMR scheme wrapped to observe a structure's hazard-slot traffic.

   [dup] calls are counted in [dups], so a test can pin how many slot
   copies a traversal makes.  After every [protect], the calling domain's
   hook ([set_hook], [after_protect]) runs: a single-domain test uses it
   to run another handle's operation at an exact point of a traversal.
   The hook is domain-local, so other domains' protects never run it, and
   the protects of the operations it makes do not run it again. *)

module Make (S : Smr.Smr_intf.S) = struct
  include S

  let dups = Atomic.make 0

  let dup th ~src ~dst =
    Atomic.incr dups;
    S.dup th ~src ~dst

  (* [f ()] and the number of [dup] calls it made. *)
  let counting_dups f =
    Atomic.set dups 0;
    let r = f () in
    (r, Atomic.get dups)

  let hook : (unit -> unit) Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ignore)

  let busy : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

  let protect r tok ~slot field =
    let g = S.protect r tok ~slot field in
    let busy = Domain.DLS.get busy in
    if not !busy then begin
      busy := true;
      Fun.protect ~finally:(fun () -> busy := false) (Domain.DLS.get hook)
    end;
    g

  (* Run [f] on this domain after every protect until [clear_hook]. *)
  let set_hook f = Domain.DLS.set hook f
  let clear_hook () = Domain.DLS.set hook ignore

  (* Run [f] once, right after the [n]-th protect from now on this
     domain. *)
  let after_protect n f =
    let left = ref n in
    set_hook (fun () ->
        decr left;
        if !left = 0 then begin
          clear_hook ();
          f ()
        end)
end
