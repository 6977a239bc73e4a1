(* Per-tid registration seats.

   Before crash recovery existed, a handle's per-domain cells were
   claimed at [register] and never given back: a crashed domain's tid
   could not be safely re-registered and its published cells leaked
   forever.  Each scheme instance now owns a seat table: [register]
   claims a seat, [deactivate] releases it, and the counts make the
   occupancy observable (tests, `stats`).

   Counts, not booleans: two structures sharing one SMR instance may each
   register the same tid, so a tid may hold several seats at once (the
   hash map registers each tid once and shares it across its buckets).  All
   updates are atomic CAS/fetch-and-add —
   seats are claimed and released from supervisor threads, not just the
   owner. *)

type t = int Atomic.t array

let create ~threads = Array.init threads (fun _ -> Atomic.make 0)
let claim t ~tid = ignore (Atomic.fetch_and_add t.(tid) 1)

(* Floor at zero so a double [deactivate] (idempotent by design) cannot
   push a seat negative and mask a later imbalance. *)
let release t ~tid =
  let cell = t.(tid) in
  let rec go () =
    let v = Atomic.get cell in
    if v > 0 && not (Atomic.compare_and_set cell v (v - 1)) then go ()
  in
  go ()

let active t ~tid = Atomic.get t.(tid)
let total t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t
