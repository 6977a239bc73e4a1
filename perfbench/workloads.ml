(* The benchmark's workloads and their deterministic op streams.

   Every workload is a closed loop with one client domain: in-process
   library callers wait for each reply, and on a 2-core host a second
   client domain makes runs far less repeatable (see NOTES.md).  The scheme and
   the shape (structure or store path, key range, mix, skew) are part of
   each workload's identity; the seed only picks the prefill permutation
   and the op stream. *)

module W = Harness.Workload
module B = Scot.Batch_op

type target =
  | Structure of { structure : string; scheme : string }
      (** a {!Harness.Instance} driven directly *)
  | Store of { batched : bool }
      (** the scotstore front end: HashMap backend under HLN, 4 shards x 256
          buckets, pressure disarmed, no TTL; [batched] selects the
          deferred [enqueue_*] path over [get]/[put]/[delete] *)

type t = {
  name : string;
  target : target;
  range : int;  (** keys are drawn from [0, range); half are prefilled *)
  mix : W.mix;
  skew : W.skew;
  setup_reps : int;  (** set-ups per run; [setup_s] is their median *)
}

let store_scheme = "HLN"
let store_shards = 4
let store_buckets = 256

let all =
  [
    (* Fig-8 headline: an optimistic traversal of ~128 nodes per op under
       the classic robust scheme, in cache; protected loads dominate. *)
    {
      name = "list-hp";
      target = Structure { structure = "HList"; scheme = "HP" };
      range = 512;
      mix = W.read_write_50;
      skew = W.Uniform;
      setup_reps = 15;
    };
    (* Larger than cache, and half the ops allocate or retire, so retire,
       sweep, pool and GC costs carry a real share. *)
    {
      name = "tree-ibr";
      target = Structure { structure = "NMTree"; scheme = "IBR" };
      range = 1 lsl 20;
      mix = W.read_write_50;
      skew = W.Uniform;
      setup_reps = 3;
    };
    (* The store's per-op path: route, accounting and sweep check plus one
       SMR bracket per request, on short chains. *)
    {
      name = "store-immediate";
      target = Store { batched = false };
      range = 8192;
      mix = W.read_dominated;
      skew = W.Zipf 0.99;
      setup_reps = 15;
    };
    (* The same store and traffic through the deferred path: the only
       workload running Batch, apply_batch and coalescing. *)
    {
      name = "store-batched";
      target = Store { batched = true };
      range = 8192;
      mix = W.read_dominated;
      skew = W.Zipf 0.99;
      setup_reps = 15;
    };
  ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all

let scheme_name w =
  match w.target with
  | Structure { scheme; _ } -> scheme
  | Store _ -> store_scheme

let is_store w = match w.target with Store _ -> true | Structure _ -> false

let is_batched w =
  match w.target with Store { batched } -> batched | Structure _ -> false

(* {2 Inputs from the seed} *)

let prefill (w : t) ~seed = W.prefill_keys ~range:w.range ~seed

(* The op stream draws from its own RNG, decorrelated from the prefill
   permutation's. *)
type gen = { rng : W.Rng.t; mix : W.mix; sampler : W.sampler }

let stream (w : t) ~seed =
  {
    rng = W.Rng.create ~seed:(seed lxor 0x5DEECE66D);
    mix = w.mix;
    sampler = W.sampler w.skew ~range:w.range;
  }

(* Op kinds are {!Scot.Batch_op} codes, so immediate results and
   [on_result] deliveries are checked by the same code. *)
let next_kind g =
  match W.op_for g.rng g.mix with
  | W.Search -> B.get
  | W.Insert -> B.put
  | W.Delete -> B.del

let next_key g = W.draw g.sampler g.rng
