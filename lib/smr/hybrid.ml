(* HYB: stall-aware EBR/IBR hybrid — the first *composed* scheme in the
   matrix.

   The read side is IBR's (2GE): each thread publishes a reservation
   interval [lower, upper], and a protected load republishes [upper] until
   the global era is stable across the load, never touching the node.
   The interval is what makes the scheme robust — and it is also what lets
   the reclamation side be lazy about how hard it looks at the
   reservations.

   The reclamation side runs two sweeps:

   - Clean mode — the cheap EBR-style pass: one scan for the minimum
     *lower* bound over active reservations, then a single-comparison
     predicate (free iff [retire_era < min_lower]).  This is EBR's exact
     predicate (a node unlinked before every active operation began is
     unreachable to all of them), at EBR's cost: O(threads + limbo), no
     per-node interval matching.  Unlike EBR, the era advances
     *unconditionally* (IBR-style, every [epoch_freq] retires), so no
     stalled thread can veto progress — it can only hold [min_lower]
     back.
   - Escalated mode — when some reservation's lower lags the global era
     by more than [config.stale_eras] (a reader is stalled), the cheap
     predicate pins everything retired since the straggler began.  The
     pass then escalates to the full IBR interval-overlap sweep, which
     frees every node whose [birth, retire] lifetime misses all
     reservation intervals — reclamation keeps progressing around the
     straggler.  When the straggler resumes (or is deactivated) the lag
     clears and the next pass folds back to the cheap predicate.

   Escalation is purely a performance policy: both predicates are
   independently safe (the cheap one is strictly more conservative), so
   safety never depends on detecting the stall.  That is why [robust] is
   honest: worst-case pinning in clean mode is bounded by the staleness
   bound (~[stale_eras * epoch_freq] retires) before escalation kicks in,
   after which the IBR bound applies.

   An earlier design detected stalls with per-read heartbeat ticks and
   switched the *read-side* validation on and off; that is unsound — see
   DESIGN.md (a tick racing the protected load leaves a window where the
   straggler's read validates against nothing).  Keeping validation
   always-on and switching only the sweep predicate has no such window. *)

let name = "HYB"

let capabilities =
  {
    Smr_intf.robust = true;
    recoverable = true;
    neutralizing = false;
    adaptive = true;
  }

(* Sentinels for an idle thread: an "interval" that overlaps nothing. *)
let inactive = max_int (* lower when idle *)
let no_upper = min_int (* upper when idle *)

type t = {
  era : int Atomic.t;
  lowers : int Memory.Padded.t; (* reservation lower bounds *)
  uppers : int Memory.Padded.t; (* reservation upper bounds *)
  in_limbo : Memory.Tcounter.t;
  seats : Seats.t;
  config : Smr_intf.config;
  tuners : Tuner.t option array; (* per-tid controllers, for [stats] *)
  (* Mode telemetry, cold-path writes only (once per reclamation pass). *)
  cheap_passes : int Atomic.t;
  full_passes : int Atomic.t;
  escalations : int Atomic.t; (* clean -> escalated transitions *)
  escalated : int Atomic.t; (* handles currently in escalated mode *)
}

type th = {
  global : t;
  id : int;
  my_lower : int Atomic.t;
  my_upper : int Atomic.t;
  limbo : Limbo_local.t;
  scratch_lo : int array; (* snapshot of active intervals, one pass at *)
  scratch_hi : int array; (* a time; length = threads *)
  mutable in_escalated : bool; (* this handle's current sweep mode *)
  mutable deactivated : bool;
}

let create ?config ~threads ~slots:_ () =
  let config =
    match config with Some c -> c | None -> Smr_intf.default_config ~threads
  in
  {
    era = Atomic.make 1;
    lowers = Memory.Padded.create threads (fun _ -> inactive);
    uppers = Memory.Padded.create threads (fun _ -> no_upper);
    in_limbo = Memory.Tcounter.create ~threads;
    seats = Seats.create ~threads;
    config;
    tuners = Array.make threads None;
    cheap_passes = Atomic.make 0;
    full_passes = Atomic.make 0;
    escalations = Atomic.make 0;
    escalated = Atomic.make 0;
  }

let register t ~tid =
  Seats.claim t.seats ~tid;
  let threads = Memory.Padded.length t.lowers in
  let limbo =
    Limbo_local.create ~config:t.config ~start:t.config.limbo_threshold
      ~in_limbo:t.in_limbo ~tid
  in
  t.tuners.(tid) <- Some (Limbo_local.tuner limbo);
  {
    global = t;
    id = tid;
    my_lower = Memory.Padded.cell t.lowers tid;
    my_upper = Memory.Padded.cell t.uppers tid;
    limbo;
    scratch_lo = Array.make threads 0;
    scratch_hi = Array.make threads 0;
    in_escalated = false;
    deactivated = false;
  }

let tid th = th.id

(* Read side: verbatim IBR.  Upper is stored before lower on activation
   (and lower withdrawn first on deactivation) so a scanner that observes
   an active lower always pairs it with an upper from the same or a later
   state of the operation — the torn intervals it can see are supersets. *)

let start_op th =
  let e = Atomic.get th.global.era in
  Atomic.set th.my_upper e;
  Atomic.set th.my_lower e;
  Probe.hit th.id Probe.Start_op

let end_op th =
  Atomic.set th.my_lower inactive;
  Atomic.set th.my_upper no_upper

let activate th =
  let e = Atomic.get th.global.era in
  Atomic.set th.my_upper e;
  Atomic.set th.my_lower e

(* The 2GE stable-era read on [upper], exactly as in IBR: the node is
   never touched, so the staged reader is just the handle. *)
type 'v reader = th

let reader th _ = th

let read_field (th : _ reader) ~slot:_ field =
  Probe.hit th.id Probe.Read;
  if Atomic.get th.my_lower = inactive then activate th;
  Smr_intf.stable_era_read field th.global.era th.my_upper
    (Atomic.get th.my_upper)

include Smr_intf.Bracket (struct
  type nonrec th = th
  type nonrec 'v reader = 'v reader

  let start_op = start_op
  let end_op = end_op
  let read_field = read_field
  let on_neutralized _ = ()
end)

let mask _ = ()
let unmask _ = ()

let dup _ ~src:_ ~dst:_ = ()
let clear_slot _ ~slot:_ = ()
let on_alloc th hdr = Memory.Hdr.set_birth hdr (Atomic.get th.global.era)

(* One reclamation pass.  The reservation scan is shared by both modes:
   it fills the interval scratch (needed only if we escalate) and finds
   the minimum active lower (needed by both the cheap predicate and the
   staleness test).  Lower is read before upper, as in IBR. *)
let reclaim_pass th =
  Probe.hit th.id Probe.Reclaim;
  let t = th.global in
  let n = Memory.Padded.length t.lowers in
  let rec fill i k min_lower =
    if i = n then (k, min_lower)
    else
      let lower = Memory.Padded.get t.lowers i in
      if lower = inactive then fill (i + 1) k min_lower
      else begin
        th.scratch_lo.(k) <- lower;
        th.scratch_hi.(k) <- Memory.Padded.get t.uppers i;
        fill (i + 1) (k + 1) (min min_lower lower)
      end
  in
  let k, min_lower = fill 0 0 inactive in
  let stale =
    min_lower <> inactive
    && Atomic.get t.era - min_lower > t.config.stale_eras
  in
  (* Mode transitions are per-handle (each thread sweeps its own limbo)
     but the gauge/counters are global telemetry. *)
  if stale && not th.in_escalated then begin
    th.in_escalated <- true;
    Atomic.incr t.escalations;
    Atomic.incr t.escalated
  end
  else if (not stale) && th.in_escalated then begin
    th.in_escalated <- false;
    Atomic.decr t.escalated
  end;
  if stale then begin
    (* Escalated: full IBR interval-overlap sweep — frees around the
       straggler at O(limbo * active) cost. *)
    Atomic.incr t.full_passes;
    Limbo_local.sweep th.limbo ~protected_:(fun (r : Smr_intf.reclaimable) ->
        let birth = Memory.Hdr.birth r.hdr in
        let retire = Memory.Hdr.retire_era r.hdr in
        let rec overlaps i =
          i < k
          && ((birth <= th.scratch_hi.(i) && retire >= th.scratch_lo.(i))
             || overlaps (i + 1))
        in
        overlaps 0)
  end
  else begin
    (* Clean: EBR's single-bound predicate.  [min_lower] is [inactive]
       (= max_int) when no operation is active, freeing everything. *)
    Atomic.incr t.cheap_passes;
    Limbo_local.sweep th.limbo ~protected_:(fun (r : Smr_intf.reclaimable) ->
        Memory.Hdr.retire_era r.hdr >= min_lower)
  end

let retire th (r : Smr_intf.reclaimable) =
  let t = th.global in
  Probe.hit th.id Probe.Retire;
  Memory.Hdr.mark_retired r.hdr;
  Memory.Hdr.set_retire_era r.hdr (Atomic.get t.era);
  Limbo_local.push th.limbo r;
  (* Unconditional era advance: stalls cannot veto progress (contrast
     EBR's [try_advance]). *)
  if Limbo_local.retires th.limbo mod Limbo_local.epoch_freq th.limbo = 0 then
    Atomic.incr t.era;
  if Limbo_local.length th.limbo >= Limbo_local.threshold th.limbo then
    reclaim_pass th

let flush th = reclaim_pass th
let unreclaimed t = Memory.Tcounter.total t.in_limbo

let stats t =
  [
    ("era", Atomic.get t.era);
    ("in_limbo", unreclaimed t);
    ("active_handles", Seats.total t.seats);
    ("cheap_passes", Atomic.get t.cheap_passes);
    ("full_passes", Atomic.get t.full_passes);
    ("escalations", Atomic.get t.escalations);
    ("escalated_now", Atomic.get t.escalated);
  ]
  @ Tuner.stats_of_array t.tuners

let set_pressure t on = Tuner.set_pressure_array t.tuners on

let deactivate th =
  if not th.deactivated then begin
    th.deactivated <- true;
    if th.in_escalated then begin
      th.in_escalated <- false;
      Atomic.decr th.global.escalated
    end;
    (* Same store order as [end_op]: lower first, so a concurrent scanner
       never pairs the stale lower with the reset upper.  Withdrawing the
       interval both unpins the victim's nodes and clears the staleness
       signal it was causing. *)
    Atomic.set th.my_lower inactive;
    Atomic.set th.my_upper no_upper;
    Seats.release th.global.seats ~tid:th.id
  end

let adopt ~victim ~into =
  if not victim.deactivated then
    invalid_arg "HYB.adopt: victim not deactivated";
  Limbo_local.adopt ~victim:victim.limbo ~into:into.limbo
