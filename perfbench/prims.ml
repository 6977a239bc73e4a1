(* Layer primitives timed in bulk: calls too short to time one by one
   (a clock read costs about as much as several of them), so each is run
   [reps] times in a batch of [batch] calls and the median ns per call of
   the batches is reported.  The SMR primitives run on a private instance
   of the workload's scheme, built through {!Smr.Registry} with the
   workload's config and slot count. *)

let batch = 200_000
let reps = 7

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [f n] performs [n] calls. *)
let per_call f =
  f (batch / 10);
  median
    (List.init reps (fun _ ->
         let t0 = Drive.now_ns () in
         f batch;
         float_of_int (Drive.now_ns () - t0) /. float_of_int batch))

let clock_ns () =
  per_call (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Drive.now_ns ()))
      done)

(* One op-kind draw plus one key draw, as every measured loop makes. *)
let draw_ns w ~seed =
  let gen = Workloads.stream w ~seed in
  per_call (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Workloads.next_kind gen));
        ignore (Sys.opaque_identity (Workloads.next_key gen))
      done)

let route_ns st keys =
  let m = Array.length keys - 1 in
  per_call (fun n ->
      for i = 1 to n do
        ignore
          (Sys.opaque_identity
             (Scotstore.Store.shard_of st (Array.unsafe_get keys (i land m))))
      done)

module Node = struct
  type t = { hdr : Memory.Hdr.t; mutable rc : Smr.Smr_intf.reclaimable }

  let hdr n = n.hdr
end

module NPool = Memory.Pool.Make (Node)

(* A fresh node with its reclaimable built once; recycling reuses both. *)
let make_node pool () =
  let hdr = Memory.Hdr.create () in
  let n = { Node.hdr; rc = { Smr.Smr_intf.hdr; free = (fun _ -> ()) } } in
  n.Node.rc <-
    { Smr.Smr_intf.hdr; free = (fun tid -> NPool.free pool ~tid n) };
  n

(* One [Pool.alloc] plus one [Pool.free] (the free needs a retired
   header, so the cycle also marks it). *)
let pool_cycle_ns () =
  let pool = NPool.create ~threads:1 () in
  let mk = make_node pool in
  per_call (fun n ->
      for _ = 1 to n do
        let node = NPool.alloc pool ~tid:0 mk in
        Memory.Hdr.mark_retired node.Node.hdr;
        NPool.free pool ~tid:0 node
      done)

type smr = { bracket_ns : float; protect_ns : float; retire_ns : float }

let cell_desc =
  {
    Smr.Smr_intf.is_null = Option.is_none;
    hdr = (function Some h -> h | None -> invalid_arg "cell_desc");
  }

let smr (module S : Smr.Smr_intf.S) ~config ~slots =
  let t = S.create ~config ~threads:1 ~slots () in
  let th = S.register t ~tid:0 in
  let empty = { Smr.Smr_intf.op0 = (fun _ -> ()) } in
  let bracket_ns =
    per_call (fun n ->
        for _ = 1 to n do
          S.with_op th empty
        done)
  in
  (* [n] protected loads of one live node's link, inside one bracket. *)
  let hdr = Memory.Hdr.create () in
  S.on_alloc th hdr;
  let cell = Atomic.make (Some hdr) in
  let rdr = S.reader th cell_desc in
  let loads =
    {
      Smr.Smr_intf.op1 =
        (fun tok n ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (S.protect rdr tok ~slot:0 cell))
          done);
    }
  in
  let protect_ns = per_call (fun n -> S.with_op1 th loads n) in
  (* The micro retire loop's shape: allocate from a pool, stamp, retire;
     the scheme's sweeps free back into the pool.  One bracket per 64
     retires keeps the bracket's share below a nanosecond. *)
  let pool = NPool.create ~threads:1 () in
  let mk = make_node pool in
  let retire_ns =
    per_call (fun n ->
        for _ = 1 to n / 64 do
          S.start_op th;
          for _ = 1 to 64 do
            let node = NPool.alloc pool ~tid:0 mk in
            S.on_alloc th node.Node.hdr;
            S.retire th node.Node.rc
          done;
          S.end_op th
        done)
  in
  S.flush th;
  S.deactivate th;
  { bracket_ns; protect_ns; retire_ns }
