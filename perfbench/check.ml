(* Correctness checker: a shadow membership bitset over the key range.

   With one client every result is exactly predictable: a get hits iff the
   key is present, a put succeeds iff it was absent, a delete iff it was
   present.  Batched results are checked when [on_result] delivers them,
   which is program order within a shard, and shards hold disjoint keys,
   so per-key order is preserved there too.  After a mismatch the shadow
   follows the operation's effect (present after a put, absent after a
   delete), so one wrong answer counts once. *)

module B = Scot.Batch_op

type t = {
  bits : Bytes.t;
  prefilled : int;
  mutable observed : int;  (** results checked *)
  mutable inserted : int;  (** successful puts *)
  mutable deleted : int;  (** successful deletes *)
  mutable reads : int;
  mutable read_hits : int;
  mutable mismatches : int;
  mutable raised : int;  (** exceptions out of the program *)
  mutable use_after_free : int;  (** of which {!Memory.Fault.Use_after_free} *)
  mutable failed_checks : int;  (** post-run checks that failed *)
  mutable errors : string list;  (** first few failure descriptions, newest first *)
}

let create ~range ~prefill =
  let bits = Bytes.make range '\000' in
  Array.iter (fun k -> Bytes.set bits k '\001') prefill;
  {
    bits;
    prefilled = Array.length prefill;
    observed = 0;
    inserted = 0;
    deleted = 0;
    reads = 0;
    read_hits = 0;
    mismatches = 0;
    raised = 0;
    use_after_free = 0;
    failed_checks = 0;
    errors = [];
  }

let note t msg = if List.length t.errors < 8 then t.errors <- msg :: t.errors

let mismatch t ~kind ~key ~hit =
  t.mismatches <- t.mismatches + 1;
  note t
    (Printf.sprintf "%s %d returned %b, expected %b" (B.kind_name kind) key hit
       (not hit))

let observe t ~kind ~key ~hit =
  let present = Bytes.unsafe_get t.bits key <> '\000' in
  t.observed <- t.observed + 1;
  if kind = B.get then begin
    t.reads <- t.reads + 1;
    if hit then t.read_hits <- t.read_hits + 1;
    if hit <> present then mismatch t ~kind ~key ~hit
  end
  else if kind = B.put then begin
    if hit then t.inserted <- t.inserted + 1;
    if hit = present then mismatch t ~kind ~key ~hit;
    Bytes.unsafe_set t.bits key '\001'
  end
  else begin
    if hit then t.deleted <- t.deleted + 1;
    if hit <> present then mismatch t ~kind ~key ~hit;
    Bytes.unsafe_set t.bits key '\000'
  end

let raised t e =
  t.raised <- t.raised + 1;
  (match e with
  | Memory.Fault.Use_after_free _ -> t.use_after_free <- t.use_after_free + 1
  | _ -> ());
  note t ("raised " ^ Printexc.to_string e)

let expect t ok msg =
  if not ok then begin
    t.failed_checks <- t.failed_checks + 1;
    note t msg
  end

let expected_size t = t.prefilled + t.inserted - t.deleted

(* Post-run checks on the structure before teardown: invariants, and the
   final size against both the op results and the shadow. *)
let final t ~size ~check_invariants =
  (match check_invariants () with
  | () -> ()
  | exception e -> expect t false ("check_invariants: " ^ Printexc.to_string e));
  let n = size () in
  expect t
    (n = expected_size t)
    (Printf.sprintf "size %d <> prefill %d + inserted %d - deleted %d" n
       t.prefilled t.inserted t.deleted)

(* After teardown every retired node must have been reclaimed. *)
let drained t ~unreclaimed =
  expect t (unreclaimed = 0)
    (Printf.sprintf "unreclaimed gauge %d after teardown" unreclaimed)

(* Ops issued: every checked result plus every op that raised. *)
let attempted t = t.observed + t.raised

let failures t = t.mismatches + t.raised + t.failed_checks
let ok t = failures t = 0
let errors t = List.rev t.errors
