(* The two runs behind one command.

   [e2e] is the untraced run: set up [setup_reps] times, warm up, then one
   closed-loop window of [seconds], and report the end-to-end metrics.

   [traced] attributes the cost to layers.  Each rung of the layer ladder
   drives its own set-up with the same seeded op stream: the workload's
   own untraced loop (the reference), the scot layer (the instance, or the
   store's shards), on [store-batched] the shards' [apply_batch] groups,
   and on the store workloads the [Store] calls themselves.  The
   generator and the smallest primitives are timed in bulk ({!Prims}).
   With one client every set-up follows the same path, so the difference
   between rungs is each layer's self time.  The timed rungs record one
   span per call; the top rung's throughput beside the reference's is the
   tracing overhead. *)

module B = Scot.Batch_op
module St = Scotstore.Store

type metric = { name : string; unit : string; value : float; samples : int }
(** [samples] is the sample count behind a percentile, else 0. *)


type result = {
  metrics : metric list;
  attempted : int;
  checks : Check.t list;  (** one per fresh set-up the run drove *)
  notes : string list;  (** per-layer metrics reported as 0, and why *)
}

let failed r = List.fold_left (fun a c -> a + Check.failures c) 0 r.checks
let errors r = List.concat_map Check.errors r.checks

let use_after_free r =
  List.fold_left (fun a c -> a + c.Check.use_after_free) 0 r.checks

let end_to_end =
  [
    ("throughput_ops_s", "1/s");
    ("read_p50_ns", "ns");
    ("read_p99_ns", "ns");
    ("write_p50_ns", "ns");
    ("write_p99_ns", "ns");
    ("unreclaimed_mean", "nodes");
    ("unreclaimed_peak", "nodes");
    ("heap_peak_mb", "MB");
    ("setup_s", "s");
    ("success_rate", "ratio");
  ]

let per_layer =
  [
    ("harness.draw_ns", "ns");
    ("bench.clock_ns", "ns");
    ("store.op_ns", "ns");
    ("store.self_ns", "ns");
    ("store.route_ns", "ns");
    ("store.dispatch_ns_per_req", "ns");
    ("store.batch_occupancy", "req");
    ("store.shard_skew", "ratio");
    ("scot.search_ns", "ns");
    ("scot.insert_ns", "ns");
    ("scot.delete_ns", "ns");
    ("scot.batch_ns_per_req", "ns");
    ("scot.traverse_ns", "ns");
    ("scot.hit_ratio", "ratio");
    ("scot.restarts_per_kop", "1/kop");
    ("smr.bracket_ns", "ns");
    ("smr.protect_ns", "ns");
    ("smr.retire_ns", "ns");
    ("smr.drain_ns_per_node", "ns");
    ("smr.unreclaimed_per_key", "nodes/key");
    ("smr.peak_over_bound", "ratio");
    ("memory.pool_cycle_ns", "ns");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("trace.untraced_ops_s", "1/s");
    ("trace.traced_ops_s", "1/s");
    ("trace.overhead_pct", "%");
    ("trace.accounted_pct", "%");
  ]

(* A metric's unit comes from the tables above, which BENCHMARK.json
   mirrors (the tests hold the two together). *)
let m ?(samples = 0) name value =
  let unit = List.assoc name (end_to_end @ per_layer) in
  let value = if Float.is_finite value then value else 0. in
  { name; unit; value; samples }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The workload's own loop: the store's deferred path on [store-batched],
   else immediate calls through the top layer. *)
let loop (w : Workloads.t) sut win ~gen ~check ~timed =
  match sut.Drive.store with
  | Some store when Workloads.is_batched w ->
      Drive.batched win ~gen ~check ~store ~gauge:sut.Drive.unreclaimed ~timed
  | _ ->
      Drive.direct win ~gen ~check ~call:sut.Drive.call
        ~gauge:sut.Drive.unreclaimed

let deadline seconds = Drive.now_ns () + int_of_float (seconds *. 1e9)

(* {2 End-to-end run} *)

let e2e (w : Workloads.t) ~seed ~seconds =
  let prefill = Workloads.prefill w ~seed in
  let reps = w.setup_reps in
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    (* The previous set-up is released first, so the heap peak stays that
       of one set-up. *)
    Option.iter
      (fun sut ->
        sut.Drive.teardown ();
        last := None;
        Gc.full_major ())
      !last;
    let sut, dt = Drive.setup w ~prefill in
    times := dt :: !times;
    last := Some sut
  done;
  let sut = Option.get !last in
  let check = Check.create ~range:w.range ~prefill in
  let win = Drive.window () in
  let d = loop w sut win ~gen:(Workloads.stream w ~seed) ~check ~timed:false in
  d ~max_ops:max_int ~until_ns:(deadline (Float.min 1. (0.05 *. seconds)));
  Drive.reset win;
  d ~max_ops:max_int ~until_ns:(deadline seconds);
  Drive.finish sut check;
  let attempted = max 1 (Check.attempted check) in
  let lat name h p = m ~samples:(Hist.count h) name (Hist.percentile h p) in
  let metrics =
    [
      m "throughput_ops_s" (Drive.ops_per_s win);
      lat "read_p50_ns" win.Drive.reads 0.50;
      lat "read_p99_ns" win.Drive.reads 0.99;
      lat "write_p50_ns" win.Drive.writes 0.50;
      lat "write_p99_ns" win.Drive.writes 0.99;
      m ~samples:win.Drive.g_n "unreclaimed_mean"
        (ratio win.Drive.g_sum win.Drive.g_n);
      m ~samples:win.Drive.g_n "unreclaimed_peak" (float_of_int win.Drive.g_max);
      m "heap_peak_mb" (heap_peak_mb ());
      m ~samples:reps "setup_s" (Prims.median !times);
      m "success_rate" (1. -. ratio (Check.failures check) attempted);
    ]
  in
  { metrics; attempted; checks = [ check ]; notes = [] }

(* {2 Traced run} *)

type rung = {
  check : Check.t;
  win : Drive.window;
  mk : Drive.sut -> Drive.loop;
  loops : Drive.loop option array;  (** one per set-up, made on first use *)
}

(* Ops per rung per round of the interleaved ladder. *)
let chunk = 4096

let traced ?spans_out (w : Workloads.t) ~seed ~seconds =
  let prefill = Workloads.prefill w ~seed in
  let is_store = Workloads.is_store w and batched = Workloads.is_batched w in
  let notes = ref [] in
  let drop name why = notes := Printf.sprintf "%s = 0: %s" name why :: !notes in
  let clock_ns = Prims.clock_ns () in
  let draw_ns = Prims.draw_ns w ~seed in
  let k = if batched then 4 else if is_store then 3 else 2 in
  let suts = Array.init k (fun _ -> fst (Drive.setup w ~prefill)) in
  let rung ?layer mk =
    let check = Check.create ~range:w.range ~prefill in
    let win = Drive.window ?trace:(Option.map Drive.spans layer) () in
    let gen = Workloads.stream w ~seed in
    { check; win; mk = mk ~check ~win ~gen; loops = Array.make k None }
  in
  let reference =
    rung (fun ~check ~win ~gen sut -> loop w sut win ~gen ~check ~timed:false)
  in
  let scot =
    rung ~layer:"scot" (fun ~check ~win ~gen sut ->
        Drive.direct win ~gen ~check ~call:sut.Drive.scot_call
          ~gauge:sut.Drive.unreclaimed)
  in
  let groups =
    if batched then
      Some
        (rung ~layer:"scot.apply_batch" (fun ~check ~win ~gen sut ->
             Drive.groups win ~gen ~check ~store:(Option.get sut.Drive.store)))
    else None
  in
  let store =
    if is_store then
      Some
        (rung ~layer:"store" (fun ~check ~win ~gen sut ->
             loop w sut win ~gen ~check ~timed:true))
    else None
  in
  let ladder =
    Array.of_list (reference :: scot :: List.filter_map Fun.id [ groups; store ])
  in
  let top = Option.value store ~default:scot in
  let restarts () =
    Array.fold_left
      (fun a sut -> a + Option.fold ~none:0 ~some:(fun f -> f ()) sut.Drive.restarts)
      0 suts
  in
  let shard_ops () =
    Array.fold_left
      (fun a sut ->
        match sut.Drive.store with
        | Some s ->
            Array.map2 (fun x (ops, _) -> x + ops) a
              (Scotstore.Stats.per_shard (St.stats s.Drive.st))
        | None -> a)
      (Array.make (if is_store then Workloads.store_shards else 0) 0)
      suts
  in
  let restarts0 = restarts () and shards0 = shard_ops () in
  (* Every rung replays the same op stream in lockstep chunks and completes
     every op of a chunk, so after each round all set-ups hold the same
     logical state.  Each rung therefore drives a different set-up from
     round to round, and heap-layout differences between set-ups average
     out across rungs.  The order of the rungs alternates too.  The GC
     counters are read around the reference rung's steps only. *)
  let minor = ref 0. and majors = ref 0 in
  let until = deadline (0.6 *. seconds) and round = ref 0 in
  let step i r =
    let j = (i + !round) mod k in
    let d =
      match r.loops.(j) with
      | Some d -> d
      | None ->
          let d = r.mk suts.(j) in
          r.loops.(j) <- Some d;
          d
    in
    if r == reference then begin
      let major0 = (Gc.quick_stat ()).Gc.major_collections in
      let minor0 = Gc.minor_words () in
      d ~max_ops:chunk ~until_ns:max_int;
      minor := !minor +. (Gc.minor_words () -. minor0);
      majors := !majors + (Gc.quick_stat ()).Gc.major_collections - major0
    end
    else d ~max_ops:chunk ~until_ns:max_int
  in
  while
    Drive.now_ns () < until
    && Array.for_all (fun r -> Check.ok r.check) ladder
  do
    if !round land 1 = 0 then Array.iteri step ladder
    else
      for i = k - 1 downto 0 do
        step i ladder.(i)
      done;
    incr round
  done;
  let sut = suts.(0) in
  let refw = reference.win in
  let n = max 1 refw.Drive.ops in
  let restarts_per_kop =
    1000. *. ratio (restarts () - restarts0) (k * n)
  in
  let shard_ops = Array.map2 ( - ) (shard_ops ()) shards0 in
  let occupancy =
    match sut.Drive.store with
    | Some s when batched ->
        let occ = Scotstore.Stats.occupancy (St.stats s.Drive.st) in
        ratio
          (List.fold_left (fun a (size, k) -> a + (size * k)) 0 occ)
          (List.fold_left (fun a (_, k) -> a + k) 0 occ)
    | _ -> 0.
  in
  let g0 = sut.Drive.unreclaimed () in
  let t0 = Drive.now_ns () in
  sut.Drive.quiesce ();
  let t1 = Drive.now_ns () in
  let g1 = sut.Drive.unreclaimed () in
  Array.iteri (fun i sut -> Drive.finish sut ladder.(i).check) suts;
  (* Layer primitives, timed in bulk. *)
  let smr = Prims.smr sut.Drive.scheme ~config:sut.Drive.config ~slots:sut.Drive.slots in
  let pool_cycle_ns = Prims.pool_cycle_ns () in
  let route_ns =
    match sut.Drive.store with
    | Some s ->
        let gen = Workloads.stream w ~seed in
        Prims.route_ns s.Drive.st (Array.init 65536 (fun _ -> Workloads.next_key gen))
    | None -> 0.
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc "layer\top\tstart_ns\tend_ns\n";
      Array.iter (fun r -> Option.iter (Drive.write_spans oc) r.win.Drive.trace) ladder;
      close_out oc)
    spans_out;
  (* Derived layer metrics. *)
  let per_call win = ratio (Drive.call_total win) win.Drive.ops in
  let scotw = scot.win in
  let kind_ns k = ratio scotw.Drive.call_ns.(k) scotw.Drive.call_n.(k) in
  let batch_ns_per_req =
    match groups with
    | Some g -> ratio g.win.Drive.dispatch_ns g.win.Drive.dispatch_reqs
    | None -> 0.
  in
  let store_op_ns = match store with Some s -> per_call s.win | None -> 0. in
  let skew =
    let total = Array.fold_left ( + ) 0 shard_ops in
    if total = 0 then 0.
    else
      float_of_int (Array.fold_left max 0 shard_ops)
      /. (float_of_int total /. float_of_int (Array.length shard_ops))
  in
  let drain_ns =
    if g0 > g1 then float_of_int (t1 - t0) /. float_of_int (g0 - g1)
    else begin
      drop "smr.drain_ns_per_node" "the gauge was already empty when sampled";
      0.
    end
  in
  if not is_store then
    List.iter
      (fun name -> drop name "no store layer on this workload")
      [
        "store.op_ns"; "store.self_ns"; "store.route_ns";
        "store.dispatch_ns_per_req"; "store.batch_occupancy";
        "store.shard_skew";
      ]
  else if not batched then
    List.iter
      (fun name -> drop name "the immediate path dispatches no batches")
      [ "store.dispatch_ns_per_req"; "store.batch_occupancy" ];
  if not batched then
    drop "scot.batch_ns_per_req" "only store-batched runs apply_batch";
  if sut.Drive.restarts = None then
    drop "scot.restarts_per_kop" "Shard exposes no restart counter";
  let untraced = Drive.ops_per_s refw and traced_ops = Drive.ops_per_s top.win in
  let search_ns = kind_ns B.get in
  let metrics =
    [
      m "harness.draw_ns" draw_ns;
      m "bench.clock_ns" clock_ns;
      m "store.op_ns" store_op_ns;
      m "store.self_ns"
        (if not is_store then 0.
         else store_op_ns -. if batched then batch_ns_per_req else per_call scotw);
      m "store.route_ns" route_ns;
      m "store.dispatch_ns_per_req"
        (match store with
        | Some s when batched ->
            ratio s.win.Drive.dispatch_ns s.win.Drive.dispatch_reqs
        | _ -> 0.);
      m "store.batch_occupancy" occupancy;
      m "store.shard_skew" skew;
      m ~samples:scotw.Drive.call_n.(B.get) "scot.search_ns" search_ns;
      m ~samples:scotw.Drive.call_n.(B.put) "scot.insert_ns" (kind_ns B.put);
      m ~samples:scotw.Drive.call_n.(B.del) "scot.delete_ns" (kind_ns B.del);
      m "scot.batch_ns_per_req" batch_ns_per_req;
      m "scot.traverse_ns" (search_ns -. smr.Prims.bracket_ns);
      m "scot.hit_ratio"
        (ratio reference.check.Check.read_hits reference.check.Check.reads);
      m "scot.restarts_per_kop" restarts_per_kop;
      m "smr.bracket_ns" smr.Prims.bracket_ns;
      m "smr.protect_ns" smr.Prims.protect_ns;
      m "smr.retire_ns" smr.Prims.retire_ns;
      m "smr.drain_ns_per_node" drain_ns;
      m "smr.unreclaimed_per_key"
        (ratio refw.Drive.g_sum refw.Drive.g_n
        /. float_of_int (Array.length prefill));
      m "smr.peak_over_bound"
        (match sut.Drive.mem_bound with
        | Some b -> ratio refw.Drive.g_max b
        | None -> 0.);
      m "memory.pool_cycle_ns" pool_cycle_ns;
      m "gc.minor_words_per_op" (!minor /. float_of_int n);
      m "gc.major_collections" (float_of_int !majors);
      m ~samples:n "trace.untraced_ops_s" untraced;
      m ~samples:top.win.Drive.ops "trace.traced_ops_s" traced_ops;
      m "trace.overhead_pct" (100. *. ((untraced /. traced_ops) -. 1.));
      m "trace.accounted_pct"
        (100. *. (draw_ns +. per_call top.win) /. (1e9 /. traced_ops));
    ]
  in
  let checks = Array.to_list (Array.map (fun r -> r.check) ladder) in
  let attempted =
    max 1 (List.fold_left (fun a c -> a + Check.attempted c) 0 checks)
  in
  { metrics; attempted; checks; notes = List.rev !notes }
