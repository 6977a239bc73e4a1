(* The system under test and the closed loops that feed it.

   Each loop takes ops from a {!Workloads.gen}, times every call with
   [Monotonic_clock.now] (1 ns resolution; [Unix.gettimeofday]'s 1 us is
   coarser than a store op), checks every result with {!Check} and samples
   the unreclaimed gauge every [sample_every] completed ops.  The loops
   allocate nothing per op, so [gc.minor_words_per_op] is the program's
   own allocation. *)

module B = Scot.Batch_op
module St = Scotstore.Store
module Sh = Scotstore.Shard
module I = Harness.Instance

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type store = {
  st : St.t;
  client : St.client;
  sink : (kind:int -> key:int -> hit:bool -> unit) ref;
      (** the client's [on_result] forwards here; a no-op except while a
          {!batched} loop runs *)
}

type sut = {
  call : int -> int -> bool;
      (** one immediate op ({!Scot.Batch_op} kind, key) through the top
          layer: the {!Harness.Instance} or [Store.get/put/delete] *)
  scot_call : int -> int -> bool;
      (** the same op on the structure itself: the instance, or
          [Store.shard_of] plus the {!Scotstore.Shard} closures *)
  size : unit -> int;
  unreclaimed : unit -> int;
  check_invariants : unit -> unit;
  quiesce : unit -> unit;
  teardown : unit -> unit;
  restarts : (unit -> int) option;  (** [None]: {!Scotstore.Shard} has none *)
  scheme : Smr.Registry.scheme;
  config : Smr.Smr_intf.config;
  slots : int;
  mem_bound : int option;  (** stalled:0 ceiling of the gauge *)
  store : store option;
}

let build (w : Workloads.t) =
  let scheme = Smr.Registry.find_exn (Workloads.scheme_name w) in
  match w.target with
  | Workloads.Structure { structure; _ } ->
      let inst = (I.find_builder_exn structure).I.build scheme ~threads:1 () in
      let call kind key =
        if kind = B.get then inst.I.search ~tid:0 key
        else if kind = B.put then inst.I.insert ~tid:0 key
        else inst.I.delete ~tid:0 key
      in
      let config = Smr.Smr_intf.default_config ~threads:1 in
      {
        call;
        scot_call = call;
        size = inst.I.size;
        unreclaimed = inst.I.unreclaimed;
        check_invariants = inst.I.check_invariants;
        quiesce = (fun () -> inst.I.quiesce ~tid:0);
        teardown = inst.I.teardown;
        restarts = Some inst.I.restarts;
        scheme;
        config;
        slots = inst.I.slots;
        mem_bound =
          Harness.Chaos.mem_bound scheme ~config ~threads:1 ~slots:inst.I.slots
            ~range:w.range ~stalled:0 ();
        store = None;
      }
  | Workloads.Store _ ->
      let st =
        St.create ~buckets:Workloads.store_buckets ~backend:Sh.Hashmap ~scheme
          ~shards:Workloads.store_shards ~threads:1 ()
      in
      let sink = ref (fun ~kind:_ ~key:_ ~hit:_ -> ()) in
      let client =
        St.client st ~tid:0 ~on_result:(fun ~kind ~key ~hit ->
            !sink ~kind ~key ~hit)
      in
      let shard key = St.shard st (St.shard_of st key) in
      let sh0 = St.shard st 0 in
      {
        call =
          (fun kind key ->
            if kind = B.get then St.get client key
            else if kind = B.put then St.put client key
            else St.delete client key);
        scot_call =
          (fun kind key ->
            let sh = shard key in
            if kind = B.get then sh.Sh.search ~tid:0 key
            else if kind = B.put then sh.Sh.insert ~tid:0 key
            else sh.Sh.delete ~tid:0 key);
        size = (fun () -> St.size st);
        unreclaimed = (fun () -> St.unreclaimed st);
        check_invariants = (fun () -> St.check_invariants st);
        quiesce = (fun () -> St.quiesce st ~tid:0);
        teardown = (fun () -> St.teardown st);
        restarts = None;
        scheme;
        config = sh0.Sh.config;
        slots = sh0.Sh.slots;
        mem_bound = St.mem_bound st ~range:w.range ~stalled:0 ();
        store = Some { st; client; sink };
      }

(* Build plus prefill: what [setup_s] measures. *)
let setup w ~prefill =
  let t0 = now_ns () in
  let sut = build w in
  Array.iter
    (fun k ->
      if not (sut.call B.put k) then
        failwith (Printf.sprintf "prefill: put %d found the key present" k))
    prefill;
  (sut, float_of_int (now_ns () - t0) /. 1e9)

(* {2 Spans}

   One record per timed call (layer, op kind, start, end) in preallocated
   arrays, written out when the run ends.  Only the first [span_cap] calls
   of a rung are kept; every call still counts in the rung's sums. *)

let span_cap = 1 lsl 16

type spans = {
  layer : string;
  kinds : int array;
  starts : int array;
  stops : int array;
  mutable n : int;
}

let spans layer =
  {
    layer;
    kinds = Array.make span_cap 0;
    starts = Array.make span_cap 0;
    stops = Array.make span_cap 0;
    n = 0;
  }

let write_spans oc s =
  for i = 0 to s.n - 1 do
    Printf.fprintf oc "%s\t%s\t%d\t%d\n" s.layer (B.kind_name s.kinds.(i))
      s.starts.(i) s.stops.(i)
  done

(* {2 Windows and loops}

   A window accumulates what the calls of one loop measured.  A loop
   runs in steps, so the traced run can interleave several loops over
   the same op stream chunk by chunk. *)

let sample_every = 64

type window = {
  reads : Hist.t;  (** per-request latency of gets *)
  writes : Hist.t;  (** of puts and deletes *)
  mutable ops : int;  (** completed requests *)
  mutable elapsed_ns : int;  (** wall time inside steps *)
  call_ns : int array;  (** summed time of calls into the layer, per kind *)
  call_n : int array;
  mutable dispatch_ns : int;
      (** time of the calls that completed a batch's requests, and ... *)
  mutable dispatch_reqs : int;  (** ... the requests they completed *)
  mutable g_sum : int;
  mutable g_n : int;
  mutable g_max : int;
  trace : spans option;
}

let window ?trace () =
  {
    reads = Hist.create ();
    writes = Hist.create ();
    ops = 0;
    elapsed_ns = 0;
    call_ns = Array.make 3 0;
    call_n = Array.make 3 0;
    dispatch_ns = 0;
    dispatch_reqs = 0;
    g_sum = 0;
    g_n = 0;
    g_max = 0;
    trace;
  }

(* Fresh counters for the same loop: the e2e run's warm-up ends here. *)
let reset w =
  Hist.clear w.reads;
  Hist.clear w.writes;
  w.ops <- 0;
  w.elapsed_ns <- 0;
  Array.fill w.call_ns 0 3 0;
  Array.fill w.call_n 0 3 0;
  w.dispatch_ns <- 0;
  w.dispatch_reqs <- 0;
  w.g_sum <- 0;
  w.g_n <- 0;
  w.g_max <- 0

let ops_per_s w = float_of_int w.ops *. 1e9 /. float_of_int w.elapsed_ns
let call_total w = Array.fold_left ( + ) 0 w.call_ns

let latency w ~kind d = Hist.record (if kind = B.get then w.reads else w.writes) d

let timed_call w ~kind t0 t1 =
  w.call_ns.(kind) <- w.call_ns.(kind) + (t1 - t0);
  w.call_n.(kind) <- w.call_n.(kind) + 1;
  match w.trace with
  | Some s when s.n < span_cap ->
      s.kinds.(s.n) <- kind;
      s.starts.(s.n) <- t0;
      s.stops.(s.n) <- t1;
      s.n <- s.n + 1
  | _ -> ()

let sample w g =
  w.g_sum <- w.g_sum + g;
  w.g_n <- w.g_n + 1;
  if g > w.g_max then w.g_max <- g

(* [step ~max_ops ~until_ns] issues ops until [max_ops] were issued in this
   step or the clock passed [until_ns], stopping early on an exception.
   Every op issued in a step has completed when the step returns. *)
type loop = max_ops:int -> until_ns:int -> unit

(* Each immediate [call] completes its op: latency and layer time are the
   same interval. *)
let direct w ~gen ~check ~call ~gauge ~max_ops ~until_ns =
  let t_start = now_ns () in
  let running = ref (Check.ok check) and issued = ref 0 in
  while !running do
    let kind = Workloads.next_kind gen in
    let key = Workloads.next_key gen in
    let t0 = now_ns () in
    let r =
      match call kind key with
      | true -> 1
      | false -> 0
      | exception e ->
          Check.raised check e;
          2
    in
    let t1 = now_ns () in
    if r = 2 then running := false
    else begin
      latency w ~kind (t1 - t0);
      timed_call w ~kind t0 t1;
      Check.observe check ~kind ~key ~hit:(r = 1);
      w.ops <- w.ops + 1;
      if w.ops land (sample_every - 1) = 0 then sample w (gauge ());
      incr issued;
      if !issued >= max_ops || t1 >= until_ns then running := false
    end
  done;
  w.elapsed_ns <- w.elapsed_ns + (now_ns () - t_start)

let enqueue c kind key =
  if kind = B.get then St.enqueue_get c key
  else if kind = B.put then St.enqueue_put c key
  else St.enqueue_delete c key

(* The store's deferred path.  A request's latency runs from its enqueue
   call to the delivery of its result through [on_result]; deliveries come
   in program order per shard, so a FIFO of enqueue times per shard pairs
   them up.  With [timed] set, each enqueue call is also timed as a call
   into the store layer, and the calls that flushed a group count as
   dispatch.  A step ends with [Store.flush], so no request stays queued
   across steps. *)
let batched w ~gen ~check ~store ~gauge ~timed =
  let st = store.st and c = store.client in
  let depth =
    let rec pow2 n = if n >= 2 * St.batch_capacity st then n else pow2 (2 * n) in
    pow2 1
  in
  let mask = depth - 1 in
  let q = Array.make (St.shards st * depth) 0 in
  let head = Array.make (St.shards st) 0 in
  let tail = Array.make (St.shards st) 0 in
  let on_result ~kind ~key ~hit =
    let t1 = now_ns () in
    let s = St.shard_of st key in
    let t0 = q.((s * depth) + (head.(s) land mask)) in
    head.(s) <- head.(s) + 1;
    latency w ~kind (t1 - t0);
    Check.observe check ~kind ~key ~hit;
    w.ops <- w.ops + 1
  in
  let issued = ref 0 in
  (* A timed store call: [t1 - t0] into the layer sums, and into dispatch
     when it completed requests. *)
  let timed_store_call ~kind ~before t0 t1 =
    timed_call w ~kind t0 t1;
    if w.ops > before then begin
      w.dispatch_ns <- w.dispatch_ns + (t1 - t0);
      w.dispatch_reqs <- w.dispatch_reqs + (w.ops - before)
    end
  in
  fun ~max_ops ~until_ns ->
    store.sink := on_result;
    let t_start = now_ns () in
    let running = ref (Check.ok check) and n = ref 0 in
    while !running do
      let kind = Workloads.next_kind gen in
      let key = Workloads.next_key gen in
      let s = St.shard_of st key in
      let before = w.ops in
      let t0 = now_ns () in
      q.((s * depth) + (tail.(s) land mask)) <- t0;
      tail.(s) <- tail.(s) + 1;
      (match enqueue c kind key with
      | () -> ()
      | exception e ->
          Check.raised check e;
          running := false);
      if timed then timed_store_call ~kind ~before t0 (now_ns ());
      incr issued;
      incr n;
      if !issued land (sample_every - 1) = 0 then begin
        sample w (gauge ());
        if now_ns () >= until_ns then running := false
      end;
      if !n >= max_ops then running := false
    done;
    if Check.ok check then begin
      let before = w.ops in
      let t0 = now_ns () in
      (match St.flush c with () -> () | exception e -> Check.raised check e);
      (* The flush is a store call too; it is filed under gets. *)
      if timed then timed_store_call ~kind:B.get ~before t0 (now_ns ())
    end;
    w.elapsed_ns <- w.elapsed_ns + (now_ns () - t_start);
    store.sink := fun ~kind:_ ~key:_ ~hit:_ -> ()

(* The scot layer of the deferred path: the op stream grouped per shard
   exactly as the store groups it (a shard is dispatched when its group
   reaches capacity, the rest in ascending shard order when the step
   ends, as [Store.flush] does) and handed to [Shard.apply_batch], one
   timed call per group.  Results are checked in group order, as
   [on_result] would deliver them. *)
let groups w ~gen ~check ~store =
  let st = store.st in
  let cap = St.batch_capacity st in
  let bufs = Array.init (St.shards st) (fun _ -> B.create ~capacity:cap) in
  let dispatch s =
    let buf = bufs.(s) in
    let n = B.length buf in
    if n > 0 then begin
      let t0 = now_ns () in
      (St.shard st s).Sh.apply_batch ~tid:0 buf;
      let t1 = now_ns () in
      timed_call w ~kind:B.get t0 t1;
      w.dispatch_ns <- w.dispatch_ns + (t1 - t0);
      w.dispatch_reqs <- w.dispatch_reqs + n;
      for i = 0 to n - 1 do
        Check.observe check ~kind:buf.B.kinds.(i) ~key:buf.B.keys.(i)
          ~hit:buf.B.results.(i)
      done;
      w.ops <- w.ops + n;
      B.clear buf
    end
  in
  fun ~max_ops ~until_ns:_ ->
    let t_start = now_ns () in
    (if Check.ok check then
       match
         for _ = 1 to max_ops do
           let kind = Workloads.next_kind gen in
           let key = Workloads.next_key gen in
           let s = St.shard_of st key in
           B.push bufs.(s) ~kind ~key;
           if B.length bufs.(s) >= cap then dispatch s
         done;
         Array.iteri (fun s _ -> dispatch s) bufs
       with
       | () -> ()
       | exception e -> Check.raised check e);
    w.elapsed_ns <- w.elapsed_ns + (now_ns () - t_start)

(* Post-run checks, then teardown and the drained-gauge check. *)
let finish sut check =
  Check.final check ~size:sut.size ~check_invariants:sut.check_invariants;
  match sut.teardown () with
  | () -> Check.drained check ~unreclaimed:(sut.unreclaimed ())
  | exception e -> Check.raised check e
